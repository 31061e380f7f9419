//! Typed topology/registry errors.
//!
//! These replace the DES network's old hard assertions (`dims <= 6`,
//! `<= 1024` nodes) on every user-reachable path: a bad machine name or
//! an out-of-range node count comes back as a value the caller can turn
//! into a structured 400 (`hpf-serve`) or a CLI diagnostic, never a
//! panic.

/// A machine/topology request the registry cannot satisfy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// No registered backend with this name.
    UnknownMachine {
        name: String,
        available: Vec<&'static str>,
    },
    /// The node count is outside what the machine's topology supports
    /// (for example, more nodes than the link-occupancy tables are sized
    /// for — the bound that used to be an `assert!`).
    InvalidNodes {
        machine: String,
        nodes: usize,
        reason: String,
    },
    /// A fault plan names a link the topology does not have (the two
    /// vertices are not adjacent, or not vertices at all).
    NoSuchLink {
        topology: &'static str,
        a: usize,
        b: usize,
    },
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::UnknownMachine { name, available } => write!(
                f,
                "unknown machine `{name}` (available: {})",
                available.join(", ")
            ),
            TopologyError::InvalidNodes {
                machine,
                nodes,
                reason,
            } => write!(
                f,
                "machine `{machine}` cannot run on {nodes} node(s): {reason}"
            ),
            TopologyError::NoSuchLink { topology, a, b } => write!(
                f,
                "fault plan names link {a}-{b}, which the {topology} interconnect does not have"
            ),
        }
    }
}

impl std::error::Error for TopologyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_machine_and_alternatives() {
        let e = TopologyError::UnknownMachine {
            name: "cray".into(),
            available: vec!["ipsc860", "torus3d"],
        };
        let s = e.to_string();
        assert!(s.contains("cray") && s.contains("ipsc860") && s.contains("torus3d"));
        let e = TopologyError::InvalidNodes {
            machine: "multicore".into(),
            nodes: 4096,
            reason: "at most 128 cores".into(),
        };
        assert!(e.to_string().contains("4096"));
    }
}
