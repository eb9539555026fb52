//! Originator/Recipient addresses.
//!
//! A simplified X.400 O/R address with the attributes the paper's era
//! actually used: country, organization, organizational units, and a
//! personal name. String form:
//! `C=UK;O=Lancaster;OU=Computing;PN=Tom Rodden`.

use std::fmt;
use std::str::FromStr;

use crate::error::MtsError;

/// An O/R (originator/recipient) address.
///
/// # Examples
///
/// ```
/// use cscw_messaging::OrAddress;
///
/// let addr: OrAddress = "C=UK;O=Lancaster;OU=Computing;PN=Tom Rodden".parse()?;
/// assert_eq!(addr.country(), "UK");
/// assert_eq!(addr.personal_name(), "Tom Rodden");
/// assert_eq!(addr.to_string(), "C=UK;O=Lancaster;OU=Computing;PN=Tom Rodden");
/// # Ok::<(), cscw_messaging::MtsError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OrAddress {
    country: String,
    organization: String,
    org_units: Vec<String>,
    personal_name: String,
}

impl OrAddress {
    /// Creates an address.
    ///
    /// # Errors
    ///
    /// Returns [`MtsError::InvalidAddress`] when country, organization or
    /// personal name is empty, or any component contains `;` or `=`.
    pub fn new(
        country: impl Into<String>,
        organization: impl Into<String>,
        org_units: impl IntoIterator<Item = impl Into<String>>,
        personal_name: impl Into<String>,
    ) -> Result<Self, MtsError> {
        let addr = OrAddress {
            country: country.into(),
            organization: organization.into(),
            org_units: org_units.into_iter().map(Into::into).collect(),
            personal_name: personal_name.into(),
        };
        for part in addr.components() {
            if part.contains(';') || part.contains('=') {
                return Err(MtsError::InvalidAddress(format!(
                    "reserved character in {part:?}"
                )));
            }
        }
        if addr.country.is_empty() || addr.organization.is_empty() || addr.personal_name.is_empty()
        {
            return Err(MtsError::InvalidAddress(
                "country, organization and personal name are mandatory".into(),
            ));
        }
        Ok(addr)
    }

    fn components(&self) -> impl Iterator<Item = &str> {
        [
            self.country.as_str(),
            self.organization.as_str(),
            self.personal_name.as_str(),
        ]
        .into_iter()
        .chain(self.org_units.iter().map(String::as_str))
    }

    /// The country attribute.
    pub fn country(&self) -> &str {
        &self.country
    }

    /// The organization attribute.
    pub fn organization(&self) -> &str {
        &self.organization
    }

    /// Organizational units, outermost first.
    pub fn org_units(&self) -> &[String] {
        &self.org_units
    }

    /// The personal name.
    pub fn personal_name(&self) -> &str {
        &self.personal_name
    }

    /// The routing domain of the address: `(country, organization)`.
    /// MTAs route on this pair.
    pub fn domain(&self) -> (&str, &str) {
        (&self.country, &self.organization)
    }
}

impl fmt::Display for OrAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C={};O={}", self.country, self.organization)?;
        for ou in &self.org_units {
            write!(f, ";OU={ou}")?;
        }
        write!(f, ";PN={}", self.personal_name)
    }
}

impl FromStr for OrAddress {
    type Err = MtsError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut country = None;
        let mut organization = None;
        let mut org_units = Vec::new();
        let mut personal_name = None;
        for part in s.split(';') {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| MtsError::InvalidAddress(format!("missing '=' in {part:?}")))?;
            let value = value.trim().to_owned();
            match key.trim().to_ascii_uppercase().as_str() {
                "C" => country = Some(value),
                "O" => organization = Some(value),
                "OU" => org_units.push(value),
                "PN" => personal_name = Some(value),
                other => {
                    return Err(MtsError::InvalidAddress(format!(
                        "unknown attribute {other:?}"
                    )))
                }
            }
        }
        OrAddress::new(
            country.ok_or_else(|| MtsError::InvalidAddress("missing C=".into()))?,
            organization.ok_or_else(|| MtsError::InvalidAddress("missing O=".into()))?,
            org_units,
            personal_name.ok_or_else(|| MtsError::InvalidAddress("missing PN=".into()))?,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_display_round_trip() {
        let s = "C=DE;O=GMD;OU=FIT;OU=CSCW;PN=Wolfgang Prinz";
        let a: OrAddress = s.parse().unwrap();
        assert_eq!(a.to_string(), s);
        assert_eq!(a.org_units(), ["FIT", "CSCW"]);
        assert_eq!(a.domain(), ("DE", "GMD"));
    }

    #[test]
    fn minimal_address_needs_no_org_units() {
        let a: OrAddress = "C=ES;O=UPC;PN=Leandro".parse().unwrap();
        assert_eq!(a.org_units().len(), 0);
        assert_eq!(a.to_string(), "C=ES;O=UPC;PN=Leandro");
    }

    #[test]
    fn mandatory_fields_enforced() {
        assert!("O=UPC;PN=L".parse::<OrAddress>().is_err());
        assert!("C=ES;PN=L".parse::<OrAddress>().is_err());
        assert!("C=ES;O=UPC".parse::<OrAddress>().is_err());
        assert!(OrAddress::new("", "UPC", Vec::<String>::new(), "L").is_err());
    }

    #[test]
    fn reserved_characters_rejected() {
        assert!(OrAddress::new("ES", "a;b", Vec::<String>::new(), "L").is_err());
        assert!(OrAddress::new("ES", "UPC", ["x=y"], "L").is_err());
    }

    #[test]
    fn unknown_attribute_rejected() {
        assert!("C=ES;O=UPC;PN=L;X=1".parse::<OrAddress>().is_err());
        assert!("garbage".parse::<OrAddress>().is_err());
    }

    #[test]
    fn case_of_keys_is_insensitive() {
        let a: OrAddress = "c=ES;o=UPC;pn=L".parse().unwrap();
        assert_eq!(a.country(), "ES");
    }
}
