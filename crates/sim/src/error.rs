use std::error::Error;
use std::fmt;

/// Errors produced by the simulation engines.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// Two-valued simulation requires every LUT to be programmed; a
    /// redacted LUT has no defined function. (Use
    /// [`tri::TriSimulator`](crate::tri::TriSimulator) for the foundry
    /// view, where missing gates evaluate to X.)
    UnprogrammedLut {
        /// Name of the redacted LUT.
        name: String,
    },
    /// The number of supplied input words does not match the primary
    /// input count.
    InputCountMismatch {
        /// Primary inputs the netlist declares.
        expected: usize,
        /// Words supplied.
        got: usize,
    },
    /// The number of supplied state words does not match the flip-flop
    /// count.
    StateCountMismatch {
        /// Flip-flops the netlist declares.
        expected: usize,
        /// Words supplied.
        got: usize,
    },
    /// An engine was handed a compiled tape of another design: the
    /// netlist disagrees with the tape's on its node count, outputs or
    /// LUT nodes.
    TapeMismatch {
        /// Name of the netlist the tape could not run.
        netlist: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnprogrammedLut { name } => {
                write!(f, "LUT `{name}` is unprogrammed; two-valued simulation needs a configured netlist")
            }
            SimError::InputCountMismatch { expected, got } => {
                write!(f, "expected {expected} input words, got {got}")
            }
            SimError::StateCountMismatch { expected, got } => {
                write!(
                    f,
                    "expected {expected} state words (one per flip-flop), got {got}"
                )
            }
            SimError::TapeMismatch { netlist } => {
                write!(
                    f,
                    "netlist `{netlist}` does not fit the compiled tape it was given"
                )
            }
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_bounds() {
        fn assert_bounds<T: Error + Send + Sync + 'static>() {}
        assert_bounds::<SimError>();
    }

    #[test]
    fn display_mentions_lut_name() {
        let e = SimError::UnprogrammedLut { name: "g7".into() };
        assert!(e.to_string().contains("g7"));
    }
}
