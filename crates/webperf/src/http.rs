//! The browser-side HTTPS (HTTP/2 over TLS over TCP) client
//! connection, one per origin, multiplexing all of that origin's
//! resource fetches — like Chromium does.

use doqlab_netstack::http2::H2Connection;
use doqlab_netstack::tcp::{SegmentRef, TcpConfig, TcpSocket};
use doqlab_netstack::tls::{TlsClient, TlsConfig};
use doqlab_simnet::{Packet, SimTime, SocketAddr};
use std::collections::HashMap;

/// A completed fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchDone {
    pub resource_id: usize,
    pub at: SimTime,
    pub body_len: usize,
}

/// One origin connection.
#[derive(Debug)]
pub struct HttpsClientConn {
    tcp: TcpSocket,
    tls: TlsClient,
    tls_started: bool,
    h2: H2Connection,
    authority: String,
    queued: Vec<(usize, String)>,
    by_stream: HashMap<u32, usize>,
    completed: Vec<FetchDone>,
}

impl HttpsClientConn {
    pub fn new(local: SocketAddr, remote: SocketAddr, authority: &str) -> Self {
        let tls_cfg = TlsConfig {
            alpn: vec![b"h2".to_vec()],
            ..TlsConfig::default()
        };
        HttpsClientConn {
            tcp: TcpSocket::client(local, remote, 0, TcpConfig::default()),
            tls: TlsClient::new(tls_cfg, None),
            tls_started: false,
            h2: H2Connection::client(),
            authority: authority.to_string(),
            queued: Vec::new(),
            by_stream: HashMap::new(),
            completed: Vec::new(),
        }
    }

    pub fn local(&self) -> SocketAddr {
        self.tcp.local
    }

    pub fn start(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        self.tcp.open(now);
        self.pump(now, out);
    }

    /// Fetch `path` for `resource_id`; sent once the connection is up.
    pub fn request(&mut self, resource_id: usize, path: &str) {
        if self.tls.is_connected() {
            self.send_get(resource_id, path);
        } else {
            self.queued.push((resource_id, path.to_string()));
        }
    }

    fn send_get(&mut self, resource_id: usize, path: &str) {
        let headers = [
            (":method", "GET"),
            (":scheme", "https"),
            (":authority", self.authority.as_str()),
            (":path", path),
            ("accept", "*/*"),
            ("accept-encoding", "gzip, deflate, br"),
            ("user-agent", "doqlab-chromium/100.0"),
        ];
        let stream = self.h2.send_request(&headers, b"");
        self.by_stream.insert(stream, resource_id);
    }

    pub fn on_packet(&mut self, now: SimTime, pkt: &Packet, out: &mut Vec<Packet>) {
        if let Some(seg) = SegmentRef::decode(&pkt.payload) {
            self.tcp.on_segment(now, seg);
        }
        self.pump(now, out);
    }

    pub fn poll(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        self.pump(now, out);
    }

    fn pump(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        if self.tcp.is_established() && !self.tls_started {
            self.tls_started = true;
            self.tls.start(now);
        }
        if self.tls.is_connected() && !self.queued.is_empty() {
            for (id, path) in std::mem::take(&mut self.queued) {
                self.send_get(id, &path);
            }
        }
        let tls = &mut self.tls;
        self.tcp.recv_with(|data| tls.read_wire(now, data));
        let h2 = &mut self.h2;
        self.tls.read_app_with(|plain| h2.read_wire(plain));
        let (by_stream, completed) = (&mut self.by_stream, &mut self.completed);
        self.h2.messages_with(|msg| {
            if let Some(id) = by_stream.remove(&msg.stream_id) {
                completed.push(FetchDone {
                    resource_id: id,
                    at: now,
                    body_len: msg.body.len(),
                });
            }
        });
        let tls = &mut self.tls;
        self.h2.take_output_with(|h2_out| tls.write_app(h2_out));
        let tcp = &mut self.tcp;
        self.tls.take_output_with(|wire| tcp.send(wire));
        let (local, remote) = (self.tcp.local, self.tcp.remote);
        self.tcp
            .poll_transmit_with(now, |seg| out.push(Packet::tcp(local, remote, seg)));
    }

    pub fn take_completed(&mut self) -> Vec<FetchDone> {
        std::mem::take(&mut self.completed)
    }

    pub fn next_timeout(&self) -> Option<SimTime> {
        self.tcp.next_timeout()
    }

    pub fn failed(&self) -> bool {
        self.tcp.is_reset() || self.tls.error().is_some()
    }

    /// One-line diagnostic summary.
    pub fn debug_summary(&self) -> String {
        format!(
            "tcp={:?} est={} reset={} tls={} tls_err={:?} outstanding={} next_to={:?}",
            self.tcp.state(),
            self.tcp.is_established(),
            self.tcp.is_reset(),
            self.tls.is_connected(),
            self.tls.error(),
            self.tcp.tx_outstanding(),
            self.tcp.next_timeout(),
        )
    }
}
