//! Error type for TBF extraction.

use mct_netlist::NetlistError;
use std::fmt;

/// Errors produced while compiling circuit cones into timed BDDs.
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum TbfError {
    /// The (node, accumulated-delay) state space of the cone dynamic program
    /// exceeded the configured limit. This is the path-delay analogue of BDD
    /// blow-up: the circuit has too many distinct path-delay sums.
    ConeExplosion {
        /// Number of distinct states reached before giving up.
        entries: usize,
    },
    /// A structural problem in the underlying netlist.
    Netlist(NetlistError),
}

impl fmt::Display for TbfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TbfError::ConeExplosion { entries } => write!(
                f,
                "cone extraction exceeded {entries} distinct (node, path-delay) states"
            ),
            TbfError::Netlist(e) => write!(f, "netlist error: {e}"),
        }
    }
}

impl std::error::Error for TbfError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TbfError::Netlist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetlistError> for TbfError {
    fn from(e: NetlistError) -> Self {
        TbfError::Netlist(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = TbfError::ConeExplosion { entries: 42 };
        assert!(e.to_string().contains("42"));
        let e: TbfError = NetlistError::UnknownName("x".into()).into();
        assert!(e.to_string().contains("unknown"));
        use std::error::Error;
        assert!(e.source().is_some());
    }
}
