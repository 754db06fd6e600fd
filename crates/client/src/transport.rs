//! Transports carrying the wire protocol to a server.

use std::io::{self, BufReader};
use std::net::TcpStream;
use std::sync::Arc;
use uucs_protocol::wire::{read_server_msg, write_client_msg, Endpoint};
use uucs_protocol::{ClientMsg, ServerMsg};

/// A connection to a UUCS server.
pub trait ClientTransport {
    /// Sends one message and reads the reply.
    fn exchange(&mut self, msg: &ClientMsg) -> io::Result<ServerMsg>;
}

/// TCP transport over the text wire protocol.
pub struct TcpTransport {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl TcpTransport {
    /// Connects to a server address.
    pub fn connect(addr: impl std::net::ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        // The protocol is strictly request/reply; Nagle only adds
        // latency to the many small line writes a frame is made of.
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(TcpTransport {
            writer,
            reader: BufReader::new(stream),
        })
    }

    /// Connects with `deadline` bounding the dial and every subsequent
    /// read and write — no exchange over this transport can block
    /// forever on a black-holed peer.
    pub fn connect_with_deadline(
        addr: impl std::net::ToSocketAddrs,
        deadline: std::time::Duration,
    ) -> io::Result<Self> {
        let mut last_err = None;
        for sa in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&sa, deadline) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(Some(deadline))?;
                    stream.set_write_timeout(Some(deadline))?;
                    let writer = stream.try_clone()?;
                    return Ok(TcpTransport {
                        writer,
                        reader: BufReader::new(stream),
                    });
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
        }))
    }

    /// Ends the session politely.
    pub fn bye(&mut self) -> io::Result<()> {
        write_client_msg(&mut self.writer, &ClientMsg::Bye)
    }

    /// Splits the transport into its socket halves — what the wire
    /// negotiation needs to run the text `HELLO` exchange and then hand
    /// the same socket to a binary connection.
    pub fn into_parts(self) -> (TcpStream, BufReader<TcpStream>) {
        (self.writer, self.reader)
    }

    /// Reassembles a transport from socket halves (the text fallback
    /// after a negotiation that settled on wire v1).
    pub fn from_parts(writer: TcpStream, reader: BufReader<TcpStream>) -> Self {
        TcpTransport { writer, reader }
    }
}

impl ClientTransport for TcpTransport {
    fn exchange(&mut self, msg: &ClientMsg) -> io::Result<ServerMsg> {
        write_client_msg(&mut self.writer, msg)?;
        read_server_msg(&mut self.reader)
    }
}

/// In-process transport: calls the server's handler directly. The same
/// [`Endpoint`] backs the TCP listener, so tests exercise identical
/// server logic without sockets, and each reply reaches the caller as a
/// socket's reader would have decoded it ([`ServerMsg::received`]).
pub struct LocalTransport {
    endpoint: Arc<dyn Endpoint>,
}

impl LocalTransport {
    /// Wraps a shared endpoint.
    pub fn new(endpoint: Arc<dyn Endpoint>) -> Self {
        LocalTransport { endpoint }
    }
}

impl ClientTransport for LocalTransport {
    fn exchange(&mut self, msg: &ClientMsg) -> io::Result<ServerMsg> {
        self.endpoint.handle(msg).received()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo;
    impl Endpoint for Echo {
        fn handle(&self, msg: &ClientMsg) -> ServerMsg {
            match msg {
                ClientMsg::Sync { have, .. } => ServerMsg::Ack(*have),
                _ => ServerMsg::Error("unexpected".into()),
            }
        }
    }

    #[test]
    fn local_transport_calls_endpoint() {
        let mut t = LocalTransport::new(Arc::new(Echo));
        let reply = t
            .exchange(&ClientMsg::Sync {
                client: "c".into(),
                have: 5,
                want: 1,
            })
            .unwrap();
        assert_eq!(reply, ServerMsg::Ack(5));
    }

    /// Testcase text reaches the caller decoded, as off a socket; a
    /// reply its count does not match is the exchange's error.
    #[test]
    fn local_transport_decodes_testcase_text() {
        struct Text(usize);
        impl Endpoint for Text {
            fn handle(&self, _: &ClientMsg) -> ServerMsg {
                let tc = uucs_testcase::Testcase::blank("b", 1.0, 3.0);
                ServerMsg::TestcaseText {
                    count: self.0,
                    body: uucs_testcase::format::emit(&tc),
                }
            }
        }
        let sync = ClientMsg::Sync {
            client: "c".into(),
            have: 0,
            want: 1,
        };
        let reply = LocalTransport::new(Arc::new(Text(1)))
            .exchange(&sync)
            .unwrap();
        let tc = uucs_testcase::Testcase::blank("b", 1.0, 3.0);
        assert_eq!(reply, ServerMsg::Testcases(vec![tc]));
        let err = LocalTransport::new(Arc::new(Text(2)))
            .exchange(&sync)
            .unwrap_err();
        assert_eq!(err.to_string(), "TESTCASES count mismatch");
    }
}
