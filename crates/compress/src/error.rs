use std::error::Error;
use std::fmt;

/// Error produced when a compressed byte stream cannot be decoded.
///
/// Encoders in this crate never produce undecodable streams; this error
/// surfaces corruption, truncation, or a mismatched `element_count`, all of
/// which a real DMA engine would detect as a transfer fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The stream ended before `element_count` elements were recovered.
    Truncated {
        /// Elements expected by the caller.
        expected: usize,
        /// Elements recovered before the stream ran out.
        decoded: usize,
    },
    /// Bytes follow the stream of `element_count` elements, or the stream
    /// decodes to more elements than that.
    TrailingData {
        /// Elements expected by the caller.
        expected: usize,
    },
    /// A structurally invalid record was encountered.
    Corrupt(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { expected, decoded } => write!(
                f,
                "compressed stream truncated: expected {expected} elements, decoded {decoded}"
            ),
            DecodeError::TrailingData { expected } => write!(
                f,
                "compressed stream has data beyond the expected {expected} elements"
            ),
            DecodeError::Corrupt(what) => write!(f, "corrupt compressed stream: {what}"),
        }
    }
}

impl Error for DecodeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_lowercase_and_specific() {
        let e = DecodeError::Truncated {
            expected: 10,
            decoded: 3,
        };
        assert!(e.to_string().contains("expected 10"));
        let e = DecodeError::Corrupt("bad huffman code");
        assert!(e.to_string().contains("bad huffman code"));
        let e = DecodeError::TrailingData { expected: 7 };
        assert!(e.to_string().contains("7"));
    }
}
