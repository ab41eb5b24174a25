//! A minimal HTTP/1.1 client for loopback requests: one connection per
//! request, because the server closes every connection after replying.
//! Replies are read without blocking, so one thread can keep several
//! requests in flight.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(10);

/// A response as the client saw it.
pub struct Reply {
    pub status: u16,
    pub body: String,
}

/// One request in flight: connected and sent, reply not yet complete.
pub struct Conn {
    stream: TcpStream,
    raw: Vec<u8>,
}

impl Conn {
    /// Connects and sends `GET target`. The reply is read without
    /// blocking by [`Conn::poll`] or to completion by [`Conn::finish`].
    pub fn open(addr: SocketAddr, target: &str) -> Result<Conn, String> {
        let mut stream =
            TcpStream::connect_timeout(&addr, TIMEOUT).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(TIMEOUT)))
            .and_then(|()| stream.set_write_timeout(Some(TIMEOUT)))
            .map_err(|e| format!("configure socket: {e}"))?;
        stream
            .write_all(
                format!(
                    "GET {target} HTTP/1.1\r\nHost: {addr}\r\nUser-Agent: Mozilla/5.0 (iPhone) Mobile\r\n\r\n"
                )
                .as_bytes(),
            )
            .map_err(|e| format!("send: {e}"))?;
        stream
            .set_nonblocking(true)
            .map_err(|e| format!("configure socket: {e}"))?;
        Ok(Conn {
            stream,
            raw: Vec::new(),
        })
    }

    /// Reads what has arrived; the reply once the server closed.
    pub fn poll(&mut self) -> Result<Option<Reply>, String> {
        let mut buf = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => return parse(std::mem::take(&mut self.raw)).map(Some),
                Ok(n) => self.raw.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(None),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("receive: {e}")),
            }
        }
    }

    /// Blocks until the reply is complete.
    pub fn finish(mut self) -> Result<Reply, String> {
        self.stream
            .set_nonblocking(false)
            .map_err(|e| format!("configure socket: {e}"))?;
        self.stream
            .read_to_end(&mut self.raw)
            .map_err(|e| format!("receive: {e}"))?;
        parse(self.raw)
    }
}

fn parse(raw: Vec<u8>) -> Result<Reply, String> {
    let text = String::from_utf8(raw).map_err(|e| format!("non-UTF-8 reply: {e}"))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or("reply without a header terminator")?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("reply without a status code")?;
    Ok(Reply {
        status,
        body: body.to_string(),
    })
}

/// The media links of an `/album` page, in page order.
pub fn album_links(body: &str) -> Vec<String> {
    body.split("<img src=\"")
        .skip(1)
        .filter_map(|rest| rest.split_once('"').map(|(link, _)| link.to_string()))
        .collect()
}

/// The links an `/album` page must show for `spec` on `store`: the
/// spec solved by the unplanned evaluator, HTML-escaped as the page
/// renders them.
pub fn album_oracle(
    spec: &lodify_core::albums::AlbumSpec,
    store: &lodify_store::Store,
) -> Result<Vec<String>, String> {
    let links = spec.execute(store).map_err(|e| e.to_string())?;
    Ok(links
        .iter()
        .map(|l| lodify_core::web::escape_html(l))
        .collect())
}
