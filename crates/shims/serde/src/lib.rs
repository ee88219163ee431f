#![forbid(unsafe_code)]
//! Offline stand-in for `serde`.
//!
//! The workspace builds without network access, so the serialization
//! surface the crates rely on — `#[derive(Serialize, Deserialize)]` plus
//! `serde_json::{to_string, to_string_pretty, from_str}` — is provided
//! by this trio of shim crates (`serde`, `serde_derive`, `serde_json`).
//!
//! Unlike real serde's zero-copy visitor architecture, this shim uses a
//! plain tree data model: [`Serialize`] renders a value to a [`Value`],
//! [`Deserialize`] rebuilds one from it, and `serde_json` converts
//! between [`Value`] and JSON text. That is entirely sufficient for the
//! hierarchy/graph export paths used here, and keeps the implementation
//! a few hundred dependency-free lines.

pub use serde_derive::{Deserialize, Serialize};

/// A JSON-shaped value tree: the pivot of every conversion in the shim.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON booleans.
    Bool(bool),
    /// Non-negative integers (kept exact up to `u64::MAX`).
    U64(u64),
    /// Negative integers.
    I64(i64),
    /// Floating-point numbers.
    F64(f64),
    /// Strings.
    Str(String),
    /// Arrays.
    Array(Vec<Value>),
    /// Objects, in insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a field of an [`Value::Object`].
    pub fn field(&self, name: &str) -> Result<&Value, Error> {
        match self {
            Value::Object(entries) => entries
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| Error(format!("missing field `{name}`"))),
            other => Err(Error(format!(
                "expected object with field `{name}`, got {}",
                other.kind()
            ))),
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::U64(_) | Value::I64(_) | Value::F64(_) => "number",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// Serialization/deserialization error: a plain message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Error(pub String);

impl Error {
    /// Error for a field absent from the input object.
    pub fn missing_field(name: &str) -> Error {
        Error(format!("missing field `{name}`"))
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Types renderable to a [`Value`].
pub trait Serialize {
    /// Renders `self` as a value tree.
    fn to_value(&self) -> Value;
}

/// Types rebuildable from a [`Value`].
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from a value tree.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

macro_rules! impl_serde_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::U64(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = match *v {
                    Value::U64(n) => n,
                    Value::I64(n) if n >= 0 => n as u64,
                    ref other => {
                        return Err(Error(format!(
                            concat!("expected ", stringify!($t), ", got {}"),
                            other.kind()
                        )))
                    }
                };
                <$t>::try_from(n).map_err(|_| {
                    Error(format!(concat!("{} out of range for ", stringify!($t)), n))
                })
            }
        }
    )*};
}

impl_serde_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_serde_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                if *self >= 0 {
                    Value::U64(*self as u64)
                } else {
                    Value::I64(*self as i64)
                }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n: i128 = match *v {
                    Value::U64(n) => n as i128,
                    Value::I64(n) => n as i128,
                    ref other => {
                        return Err(Error(format!(
                            concat!("expected ", stringify!($t), ", got {}"),
                            other.kind()
                        )))
                    }
                };
                <$t>::try_from(n).map_err(|_| {
                    Error(format!(concat!("{} out of range for ", stringify!($t)), n))
                })
            }
        }
    )*};
}

impl_serde_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match *v {
            Value::F64(f) => Ok(f),
            Value::U64(n) => Ok(n as f64),
            Value::I64(n) => Ok(n as f64),
            ref other => Err(Error(format!("expected f64, got {}", other.kind()))),
        }
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match *v {
            Value::Bool(b) => Ok(b),
            ref other => Err(Error(format!("expected bool, got {}", other.kind()))),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(Error(format!("expected string, got {}", other.kind()))),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(Error(format!("expected array, got {}", other.kind()))),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            None => Value::Null,
            Some(x) => x.to_value(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: ?Sized> Serialize for std::marker::PhantomData<T> {
    fn to_value(&self) -> Value {
        Value::Null
    }
}

impl<T: ?Sized> Deserialize for std::marker::PhantomData<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(std::marker::PhantomData),
            other => Err(Error(format!("expected null, got {}", other.kind()))),
        }
    }
}

macro_rules! impl_serde_tuple {
    ($len:literal; $($t:ident . $idx:tt),+) => {
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Array(items) if items.len() == $len => {
                        Ok(($($t::from_value(&items[$idx])?,)+))
                    }
                    other => Err(Error(format!(
                        "expected {}-tuple array, got {}",
                        $len,
                        other.kind()
                    ))),
                }
            }
        }
    };
}

impl_serde_tuple!(2; A.0, B.1);
impl_serde_tuple!(3; A.0, B.1, C.2);
impl_serde_tuple!(4; A.0, B.1, C.2, D.3);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip_through_values() {
        assert_eq!(u32::from_value(&42u32.to_value()).unwrap(), 42);
        assert_eq!(i64::from_value(&(-7i64).to_value()).unwrap(), -7);
        assert_eq!(
            Vec::<(u32, u32)>::from_value(&vec![(1u32, 2u32)].to_value()).unwrap(),
            vec![(1, 2)]
        );
        assert_eq!(Option::<u8>::from_value(&Value::Null).unwrap(), None);
        assert!(u8::from_value(&Value::U64(300)).is_err());
        assert!(u32::from_value(&Value::Str("x".into())).is_err());
    }

    #[test]
    fn object_field_lookup() {
        let v = Value::Object(vec![("a".into(), Value::U64(1))]);
        assert_eq!(v.field("a").unwrap(), &Value::U64(1));
        assert!(v.field("b").is_err());
        assert!(Value::Null.field("a").is_err());
    }
}
