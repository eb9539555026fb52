//! Operational interface signatures and conformance.
//!
//! An ODP computational object offers services at typed interfaces. An
//! [`InterfaceType`] lists operation signatures; conformance
//! ([`InterfaceType::conforms_to`]) is structural — an interface
//! conforms to another when it offers at least the same operations with
//! compatible signatures (contravariant parameters via `Any`, covariant
//! result). The trader matches service types by name *and* checks
//! structural conformance at export time.

use crate::error::OdpError;
use crate::value::{Value, ValueKind};

/// One operation signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OperationSig {
    name: String,
    params: Vec<ValueKind>,
    result: ValueKind,
}

impl OperationSig {
    /// Creates a signature.
    pub fn new(name: &str, params: impl IntoIterator<Item = ValueKind>, result: ValueKind) -> Self {
        OperationSig {
            name: name.to_owned(),
            params: params.into_iter().collect(),
            result,
        }
    }

    /// The operation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declared parameter kinds.
    pub fn params(&self) -> &[ValueKind] {
        &self.params
    }

    /// Declared result kind.
    pub fn result(&self) -> ValueKind {
        self.result
    }

    /// Checks an argument vector against this signature.
    ///
    /// # Errors
    ///
    /// [`OdpError::BadArguments`] on arity or kind mismatch.
    pub fn check_args(&self, args: &[Value]) -> Result<(), OdpError> {
        if args.len() != self.params.len() {
            return Err(OdpError::BadArguments(format!(
                "{} expects {} arguments, got {}",
                self.name,
                self.params.len(),
                args.len()
            )));
        }
        for (i, (declared, actual)) in self.params.iter().zip(args).enumerate() {
            if !declared.accepts(actual.kind()) {
                return Err(OdpError::BadArguments(format!(
                    "{} argument {i} expects {declared:?}, got {:?}",
                    self.name,
                    actual.kind()
                )));
            }
        }
        Ok(())
    }

    /// True when `self` can stand in where `required` is expected:
    /// same name and arity, each declared parameter at least as
    /// accepting, result at least as specific.
    pub fn substitutes_for(&self, required: &OperationSig) -> bool {
        self.name == required.name
            && self.params.len() == required.params.len()
            && self
                .params
                .iter()
                .zip(&required.params)
                .all(|(mine, theirs)| mine.accepts(*theirs) || mine == theirs)
            && (required.result.accepts(self.result) || self.result == required.result)
    }
}

/// A named interface type: a set of operation signatures.
///
/// # Examples
///
/// ```
/// use odp::{InterfaceType, OperationSig, ValueKind};
///
/// let printer = InterfaceType::new("printer")
///     .with_operation(OperationSig::new("print", [ValueKind::Text], ValueKind::Bool));
/// let fancy = InterfaceType::new("laser-printer")
///     .with_operation(OperationSig::new("print", [ValueKind::Any], ValueKind::Bool))
///     .with_operation(OperationSig::new("duplex", [], ValueKind::Unit));
/// assert!(fancy.conforms_to(&printer).is_ok(), "more ops, wider params: conformant");
/// assert!(printer.conforms_to(&fancy).is_err(), "missing duplex");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterfaceType {
    name: String,
    operations: Vec<OperationSig>,
}

impl InterfaceType {
    /// Creates an empty interface type.
    pub fn new(name: &str) -> Self {
        InterfaceType {
            name: name.to_owned(),
            operations: Vec::new(),
        }
    }

    /// Builder-style operation registration.
    #[must_use]
    pub fn with_operation(mut self, op: OperationSig) -> Self {
        self.operations.push(op);
        self
    }

    /// The type name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All operations.
    pub fn operations(&self) -> &[OperationSig] {
        &self.operations
    }

    /// Looks up an operation by name.
    pub fn operation(&self, name: &str) -> Option<&OperationSig> {
        self.operations.iter().find(|o| o.name == name)
    }

    /// Structural conformance check.
    ///
    /// # Errors
    ///
    /// [`OdpError::NotConformant`] naming the first missing or
    /// incompatible operation.
    pub fn conforms_to(&self, required: &InterfaceType) -> Result<(), OdpError> {
        for req in &required.operations {
            match self.operations.iter().find(|o| o.name == req.name) {
                None => {
                    return Err(OdpError::NotConformant {
                        reason: format!("missing operation {:?}", req.name),
                    })
                }
                Some(mine) if !mine.substitutes_for(req) => {
                    return Err(OdpError::NotConformant {
                        reason: format!("operation {:?} has incompatible signature", req.name),
                    })
                }
                Some(_) => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(name: &str) -> OperationSig {
        OperationSig::new(name, [ValueKind::Text, ValueKind::Int], ValueKind::Bool)
    }

    #[test]
    fn check_args_enforces_arity_and_kind() {
        let s = sig("op");
        assert!(s.check_args(&[Value::from("x"), Value::Int(1)]).is_ok());
        assert!(s.check_args(&[Value::from("x")]).is_err());
        assert!(s.check_args(&[Value::Int(1), Value::Int(1)]).is_err());
    }

    #[test]
    fn any_params_accept_all_kinds() {
        let s = OperationSig::new("op", [ValueKind::Any], ValueKind::Unit);
        assert!(s.check_args(&[Value::Unit]).is_ok());
        assert!(s.check_args(&[Value::from("x")]).is_ok());
        assert!(s.check_args(&[Value::List(vec![])]).is_ok());
    }

    #[test]
    fn substitution_is_reflexive() {
        let s = sig("op");
        assert!(s.substitutes_for(&s));
    }

    #[test]
    fn wider_params_substitute() {
        let wide = OperationSig::new("op", [ValueKind::Any], ValueKind::Bool);
        let narrow = OperationSig::new("op", [ValueKind::Text], ValueKind::Bool);
        assert!(wide.substitutes_for(&narrow));
        assert!(!narrow.substitutes_for(&wide));
    }

    #[test]
    fn conformance_requires_all_operations() {
        let small = InterfaceType::new("small").with_operation(sig("a"));
        let big = InterfaceType::new("big")
            .with_operation(sig("a"))
            .with_operation(sig("b"));
        assert!(big.conforms_to(&small).is_ok());
        let err = small.conforms_to(&big).unwrap_err();
        assert!(err.to_string().contains('b'));
    }

    #[test]
    fn operation_lookup() {
        let t = InterfaceType::new("t").with_operation(sig("x"));
        assert!(t.operation("x").is_some());
        assert!(t.operation("y").is_none());
    }
}
