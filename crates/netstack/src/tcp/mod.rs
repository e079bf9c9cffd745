//! TCP: segments, the connection state machine, and a listener that
//! demultiplexes incoming segments onto per-peer sockets.

mod segment;
mod socket;

pub use segment::{SegmentRef, TcpFlags, TcpOption, TcpOptions, TcpSegment, TCP_HEADER_LEN};
pub use socket::{TcpConfig, TcpFailure, TcpListener, TcpSocket, TcpState};
