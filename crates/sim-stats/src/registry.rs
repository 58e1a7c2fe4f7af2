//! Ordered name → value registry for dumping simulator statistics.

use std::collections::HashMap;
use std::fmt;

/// A single statistic value.
#[derive(Clone, Debug, PartialEq)]
pub enum StatValue {
    /// An event count.
    Int(u64),
    /// A derived metric (rate, ratio, years…).
    Float(f64),
    /// A free-form annotation (scheme name, workload name…).
    Text(String),
}

impl fmt::Display for StatValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatValue::Int(v) => write!(f, "{v}"),
            StatValue::Float(v) => write!(f, "{v:.6}"),
            StatValue::Text(s) => write!(f, "{s}"),
        }
    }
}

impl From<u64> for StatValue {
    fn from(v: u64) -> Self {
        StatValue::Int(v)
    }
}
impl From<f64> for StatValue {
    fn from(v: f64) -> Self {
        StatValue::Float(v)
    }
}
impl From<&str> for StatValue {
    fn from(v: &str) -> Self {
        StatValue::Text(v.to_owned())
    }
}
impl From<String> for StatValue {
    fn from(v: String) -> Self {
        StatValue::Text(v)
    }
}

/// An insertion-ordered collection of named statistics.
///
/// Simulator components each dump into a shared registry at the end of a run
/// (`l3.bank3.writes`, `core5.ipc`, …). Insertion order is preserved so dumps
/// are stable and diffable; lookup is O(1) via a side index.
#[derive(Clone, Debug, Default)]
pub struct StatsRegistry {
    entries: Vec<(String, StatValue)>,
    index: HashMap<String, usize>,
}

impl StatsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert or overwrite a statistic.
    pub fn set(&mut self, name: impl Into<String>, value: impl Into<StatValue>) {
        let name = name.into();
        let value = value.into();
        if let Some(&i) = self.index.get(&name) {
            self.entries[i].1 = value;
        } else {
            self.index.insert(name.clone(), self.entries.len());
            self.entries.push((name, value));
        }
    }

    /// Look up a statistic by name.
    pub fn get(&self, name: &str) -> Option<&StatValue> {
        self.index.get(name).map(|&i| &self.entries[i].1)
    }

    /// Look up an integer statistic; returns `None` for missing or non-Int.
    pub fn get_int(&self, name: &str) -> Option<u64> {
        match self.get(name) {
            Some(StatValue::Int(v)) => Some(*v),
            _ => None,
        }
    }

    /// Look up a float statistic, coercing Int to f64.
    pub fn get_float(&self, name: &str) -> Option<f64> {
        match self.get(name) {
            Some(StatValue::Float(v)) => Some(*v),
            Some(StatValue::Int(v)) => Some(*v as f64),
            _ => None,
        }
    }

    /// Number of statistics stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &StatValue)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Render as `name = value` lines, one per entry, in insertion order.
    pub fn dump(&self) -> String {
        let mut out = String::with_capacity(self.entries.len() * 32);
        for (k, v) in &self.entries {
            out.push_str(k);
            out.push_str(" = ");
            out.push_str(&v.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_get() {
        let mut r = StatsRegistry::new();
        r.set("l3.writes", 42u64);
        r.set("core0.ipc", 1.5f64);
        r.set("scheme", "re-nuca");
        assert_eq!(r.get_int("l3.writes"), Some(42));
        assert_eq!(r.get_float("core0.ipc"), Some(1.5));
        assert_eq!(
            r.get("scheme"),
            Some(&StatValue::Text("re-nuca".to_owned()))
        );
        assert_eq!(r.get("missing"), None);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn overwrite_keeps_position() {
        let mut r = StatsRegistry::new();
        r.set("a", 1u64);
        r.set("b", 2u64);
        r.set("a", 10u64);
        let keys: Vec<_> = r.iter().map(|(k, _)| k.to_owned()).collect();
        assert_eq!(keys, vec!["a", "b"]);
        assert_eq!(r.get_int("a"), Some(10));
    }

    #[test]
    fn int_coerces_to_float() {
        let mut r = StatsRegistry::new();
        r.set("n", 7u64);
        assert_eq!(r.get_float("n"), Some(7.0));
        assert_eq!(r.get_int("n"), Some(7));
    }

    #[test]
    fn dump_is_ordered() {
        let mut r = StatsRegistry::new();
        r.set("z", 1u64);
        r.set("a", 2u64);
        let dump = r.dump();
        let z_pos = dump.find("z = ").unwrap();
        let a_pos = dump.find("a = ").unwrap();
        assert!(z_pos < a_pos, "insertion order must be preserved");
    }
}
