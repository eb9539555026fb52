//! Object-class schema.
//!
//! A small structural schema in the X.501 spirit: each object class names
//! its mandatory and optional attributes; an entry must carry at least
//! one known class and every mandatory attribute of each of its classes.
//!
//! The built-in schema ([`Schema::standard`]) covers the classic X.521
//! classes the paper's knowledge base needs (country, organization,
//! organizationalUnit, person, organizationalRole, groupOfNames,
//! applicationEntity) plus the CSCW extensions MOCCA introduces
//! (cscwActivity, cscwResource, informationObject).

use std::borrow::Cow;
use std::collections::BTreeMap;

use crate::attribute::{AttributeType, AttributeValue};
use crate::entry::{Entry, OBJECT_CLASS};
use crate::error::DirectoryError;

/// One object-class definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectClass {
    name: String,
    mandatory: Vec<AttributeType>,
    optional: Vec<AttributeType>,
}

impl ObjectClass {
    /// Defines a class. Names are normalised to lowercase.
    pub fn new(
        name: &str,
        mandatory: impl IntoIterator<Item = &'static str>,
        optional: impl IntoIterator<Item = &'static str>,
    ) -> Self {
        ObjectClass {
            name: name.to_ascii_lowercase(),
            mandatory: mandatory.into_iter().map(AttributeType::new).collect(),
            optional: optional.into_iter().map(AttributeType::new).collect(),
        }
    }

    /// The (lowercase) class name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Mandatory attribute types.
    pub fn mandatory(&self) -> &[AttributeType] {
        &self.mandatory
    }

    /// Optional attribute types.
    pub fn optional(&self) -> &[AttributeType] {
        &self.optional
    }

    /// True when the attribute is allowed (mandatory or optional).
    pub fn allows(&self, ty: &AttributeType) -> bool {
        self.mandatory.contains(ty) || self.optional.contains(ty)
    }
}

/// A set of object classes against which entries validate.
#[derive(Debug, Clone, Default)]
pub struct Schema {
    classes: BTreeMap<String, ObjectClass>,
    /// When false, attributes outside the union of the entry's classes
    /// are tolerated (open-schema mode, the default: CSCW applications
    /// attach app-specific attributes freely, per the paper's
    /// tailorability requirement).
    strict_attributes: bool,
}

impl Schema {
    /// An empty schema that accepts any entry with at least one class.
    pub fn new() -> Self {
        Self::default()
    }

    /// The standard schema: X.521 core classes plus CSCW extensions.
    pub fn standard() -> Self {
        let mut schema = Schema::new();
        for class in [
            ObjectClass::new("country", ["c"], ["description"]),
            ObjectClass::new(
                "organization",
                ["o"],
                ["description", "telephonenumber", "postaladdress"],
            ),
            ObjectClass::new(
                "organizationalunit",
                ["ou"],
                ["description", "telephonenumber"],
            ),
            ObjectClass::new(
                "person",
                ["cn", "sn"],
                [
                    "telephonenumber",
                    "mail",
                    "title",
                    "description",
                    "userpassword",
                ],
            ),
            ObjectClass::new(
                "organizationalrole",
                ["cn"],
                ["roleoccupant", "description", "telephonenumber"],
            ),
            ObjectClass::new("groupofnames", ["cn", "member"], ["description", "owner"]),
            ObjectClass::new(
                "applicationentity",
                ["cn", "presentationaddress"],
                ["description", "supportedapplicationcontext"],
            ),
            // CSCW extensions (MOCCA knowledge base).
            ObjectClass::new(
                "cscwactivity",
                ["cn", "activitystate"],
                ["description", "member", "deadline", "dependson", "owner"],
            ),
            ObjectClass::new(
                "cscwresource",
                ["cn", "resourcetype"],
                ["description", "owner", "location"],
            ),
            ObjectClass::new(
                "cscwproject",
                ["cn"],
                ["description", "projectstate", "owner"],
            ),
            ObjectClass::new(
                "informationobject",
                ["cn", "contenttype"],
                ["description", "owner", "partof", "version"],
            ),
        ] {
            schema.define(class);
        }
        schema
    }

    /// Adds or replaces a class definition.
    pub fn define(&mut self, class: ObjectClass) {
        self.classes.insert(class.name.clone(), class);
    }

    /// Looks up a class by (case-insensitive) name.
    pub fn class(&self, name: &str) -> Option<&ObjectClass> {
        // Class names are kept lowercase; a lowercase name is looked
        // up as it is, with no allocation.
        let name = if name.bytes().any(|b| b.is_ascii_uppercase()) {
            Cow::Owned(name.to_ascii_lowercase())
        } else {
            Cow::Borrowed(name)
        };
        self.classes.get(&*name)
    }

    /// Number of defined classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Enables rejection of attributes not allowed by any of the entry's
    /// classes.
    pub fn set_strict_attributes(&mut self, strict: bool) {
        self.strict_attributes = strict;
    }

    /// Validates an entry.
    ///
    /// # Errors
    ///
    /// Returns [`DirectoryError::SchemaViolation`] when the entry has no
    /// object class, names an unknown class, misses a mandatory attribute,
    /// or (in strict mode) carries a disallowed attribute.
    pub fn validate(&self, entry: &Entry) -> Result<(), DirectoryError> {
        let violation = |reason: String| DirectoryError::SchemaViolation {
            dn: entry.dn().clone(),
            reason,
        };
        // The class names, walked in place; a valid entry allocates
        // nothing here.
        let values: &[AttributeValue] = entry
            .attr(OBJECT_CLASS)
            .map(|a| a.values())
            .unwrap_or_default();
        let names = || values.iter().filter_map(AttributeValue::as_text);
        if names().next().is_none() {
            return Err(violation("entry has no object class".into()));
        }
        // One lookup per class. An unknown class anywhere outranks a
        // missing attribute, so the first miss waits for the end.
        let mut missing = None;
        for name in names() {
            let Some(def) = self.class(name) else {
                return Err(violation(format!("unknown object class {name:?}")));
            };
            if missing.is_none() {
                missing = def
                    .mandatory()
                    .iter()
                    .find(|ty| entry.attr(ty).is_none())
                    .map(|ty| (ty, def));
            }
        }
        if let Some((ty, def)) = missing {
            return Err(violation(format!(
                "missing mandatory attribute {ty} for class {}",
                def.name()
            )));
        }
        if self.strict_attributes {
            for attr in entry.attrs() {
                let ty = attr.ty();
                if ty.as_str() == OBJECT_CLASS {
                    continue;
                }
                if !names().any(|name| self.class(name).is_some_and(|def| def.allows(ty))) {
                    return Err(violation(format!(
                        "attribute {ty} not allowed by any class"
                    )));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::Attribute;

    fn person_entry() -> Entry {
        Entry::new("c=UK,cn=Tom".parse().unwrap())
            .with_class("person")
            .with_attr(Attribute::single("cn", "Tom"))
            .with_attr(Attribute::single("sn", "Rodden"))
    }

    #[test]
    fn standard_schema_validates_well_formed_person() {
        let schema = Schema::standard();
        assert!(schema.validate(&person_entry()).is_ok());
    }

    #[test]
    fn missing_mandatory_attribute_is_rejected() {
        let schema = Schema::standard();
        let e = Entry::new("cn=Tom".parse().unwrap())
            .with_class("person")
            .with_attr(Attribute::single("cn", "Tom"));
        let err = schema.validate(&e).unwrap_err();
        assert!(matches!(err, DirectoryError::SchemaViolation { .. }));
        assert!(err.to_string().contains("sn"));
    }

    #[test]
    fn entry_without_class_is_rejected() {
        let schema = Schema::standard();
        let e = Entry::new("cn=Tom".parse().unwrap()).with_attr(Attribute::single("cn", "Tom"));
        assert!(schema.validate(&e).is_err());
    }

    #[test]
    fn unknown_class_is_rejected() {
        let schema = Schema::standard();
        let e = person_entry().with_class("martian");
        let err = schema.validate(&e).unwrap_err();
        assert!(err.to_string().contains("martian"));
    }

    #[test]
    fn open_schema_tolerates_extra_attributes() {
        let schema = Schema::standard();
        let e = person_entry().with_attr(Attribute::single("favouriteeditor", "vi"));
        assert!(schema.validate(&e).is_ok());
    }

    #[test]
    fn strict_schema_rejects_extra_attributes() {
        let mut schema = Schema::standard();
        schema.set_strict_attributes(true);
        assert!(schema.validate(&person_entry()).is_ok());
        let e = person_entry().with_attr(Attribute::single("favouriteeditor", "vi"));
        let err = schema.validate(&e).unwrap_err();
        assert!(err.to_string().contains("favouriteeditor"));
    }

    #[test]
    fn multiple_classes_union_their_requirements() {
        let schema = Schema::standard();
        // person + organizationalrole requires cn, sn (person) and cn (role).
        let e = person_entry().with_class("organizationalrole");
        assert!(schema.validate(&e).is_ok());
        let e2 = Entry::new("cn=Chair".parse().unwrap())
            .with_class("organizationalrole")
            .with_class("person")
            .with_attr(Attribute::single("cn", "Chair"));
        assert!(schema.validate(&e2).is_err(), "missing sn from person");
    }

    #[test]
    fn every_standard_name_is_static() {
        let schema = Schema::standard();
        let declared = schema
            .classes
            .values()
            .flat_map(|c| c.mandatory().iter().chain(c.optional()));
        for ty in declared {
            assert!(ty.is_known(), "{ty} builds as a shared name");
        }
        for name in [OBJECT_CLASS, "workson", "occupiesrole", "resourcetype"] {
            assert!(AttributeType::new(name).is_known(), "{name}");
        }
        assert!(!AttributeType::new("favouriteeditor").is_known());
    }

    #[test]
    fn cscw_extension_classes_exist() {
        let schema = Schema::standard();
        for name in ["cscwactivity", "cscwresource", "informationobject"] {
            assert!(schema.class(name).is_some(), "{name} missing");
        }
        assert!(
            schema.class("CSCWActivity").is_some(),
            "lookup is case-insensitive"
        );
    }

    #[test]
    fn violations_are_reported_in_precedence_order() {
        let mut schema = Schema::standard();
        schema.set_strict_attributes(true);
        let reason = |e: Entry| match schema.validate(&e) {
            Err(DirectoryError::SchemaViolation { reason, .. }) => reason,
            other => panic!("expected a schema violation, got {other:?}"),
        };
        let tom = || Entry::new("cn=Tom".parse().unwrap());
        let extra = || Attribute::single("favouriteeditor", "vi");

        // One violation each.
        assert_eq!(
            reason(tom().with_attr(Attribute::single("cn", "Tom"))),
            "entry has no object class"
        );
        assert_eq!(
            reason(person_entry().with_class("martian")),
            r#"unknown object class "martian""#
        );
        assert_eq!(
            reason(
                tom()
                    .with_class("person")
                    .with_attr(Attribute::single("cn", "Tom"))
            ),
            "missing mandatory attribute sn for class person"
        );
        assert_eq!(
            reason(person_entry().with_attr(extra())),
            "attribute favouriteeditor not allowed by any class"
        );

        // Two at once: the earlier kind wins. The unknown class comes
        // after a class missing an attribute, and is still reported.
        assert_eq!(
            reason(tom().with_attr(extra())),
            "entry has no object class"
        );
        assert_eq!(
            reason(
                tom()
                    .with_class("person")
                    .with_class("martian")
                    .with_attr(Attribute::single("cn", "Tom"))
            ),
            r#"unknown object class "martian""#
        );
        assert_eq!(
            reason(
                tom()
                    .with_class("person")
                    .with_attr(Attribute::single("cn", "Tom"))
                    .with_attr(extra())
            ),
            "missing mandatory attribute sn for class person"
        );
    }
}
