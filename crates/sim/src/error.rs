//! Simulator failure modes.

use std::fmt;

/// Everything that can go wrong while executing a schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The forest/times/media combination is malformed at the model level.
    Model(sm_core::ModelError),
    /// A client's program asks stream `stream` for part `part`, but the
    /// stream is only `length` parts long — the broadcast schedule and the
    /// receiving program disagree.
    StreamTooShort {
        client: usize,
        stream: usize,
        part: i64,
        length: i64,
    },
    /// Part `part` reaches client `client` in slot `received`, after its
    /// playback slot `deadline` — a playback stall.
    Stall {
        client: usize,
        part: i64,
        received: i64,
        deadline: i64,
    },
    /// Client `client` would receive `count` streams simultaneously in slot
    /// `slot` (receive-two allows 2).
    ReceiveTwoViolation {
        client: usize,
        slot: i64,
        count: usize,
    },
    /// Client `client` needs `needed` buffered parts, over the bound.
    BufferOverflow {
        client: usize,
        needed: i64,
        bound: u64,
    },
    /// The arrival times decrease: arrival `index` comes at `time`, before
    /// arrival `index − 1` at `previous`. Batch input is in time order, as
    /// the paper numbers arrivals; ties are allowed.
    TimesOutOfOrder {
        /// The first arrival whose time is below its predecessor's.
        index: usize,
        /// That arrival's time.
        time: i64,
        /// Its predecessor's time.
        previous: i64,
    },
    /// `media_len` does not fit the signed slot arithmetic (`i64`); the
    /// schedule cannot be represented without wrapping.
    MediaLenOverflow {
        /// The offending media length.
        media_len: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Model(e) => write!(f, "model error: {e}"),
            Self::StreamTooShort {
                client,
                stream,
                part,
                length,
            } => write!(
                f,
                "client {client} needs part {part} from stream {stream}, which has only {length} parts"
            ),
            Self::Stall {
                client,
                part,
                received,
                deadline,
            } => write!(
                f,
                "client {client} stalls: part {part} arrives in slot {received}, playback slot is {deadline}"
            ),
            Self::ReceiveTwoViolation {
                client,
                slot,
                count,
            } => write!(
                f,
                "client {client} would receive {count} streams in slot {slot}"
            ),
            Self::BufferOverflow {
                client,
                needed,
                bound,
            } => write!(
                f,
                "client {client} needs {needed} buffered parts, bound is {bound}"
            ),
            Self::TimesOutOfOrder {
                index,
                time,
                previous,
            } => write!(
                f,
                "arrival {index} comes at {time}, before its predecessor at {previous}; arrival times must not decrease"
            ),
            Self::MediaLenOverflow { media_len } => write!(
                f,
                "media length {media_len} exceeds the representable slot range (i64)"
            ),
        }
    }
}

impl std::error::Error for SimError {}

impl From<sm_core::ModelError> for SimError {
    fn from(e: sm_core::ModelError) -> Self {
        Self::Model(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let errs: Vec<SimError> = vec![
            SimError::Model(sm_core::ModelError::EmptyTree),
            SimError::Stall {
                client: 3,
                part: 7,
                received: 12,
                deadline: 9,
            },
            SimError::StreamTooShort {
                client: 1,
                stream: 0,
                part: 16,
                length: 15,
            },
            SimError::TimesOutOfOrder {
                index: 2,
                time: 2,
                previous: 5,
            },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
