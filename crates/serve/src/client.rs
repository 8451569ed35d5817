//! A small blocking client for the serve protocol (the `ascdg submit`
//! and `ascdg status` commands are thin wrappers over it).

use std::io::BufReader;
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::protocol::{read_line, write_line, Request, RequestStatus, Response, SubmitSpec};

/// One connection to a serve daemon.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to a daemon at `addr` (`host:port`). The socket runs with
    /// `TCP_NODELAY`, so each request line leaves as soon as it is written.
    ///
    /// # Errors
    ///
    /// Connection failure.
    pub fn connect(addr: &str) -> std::io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { writer, reader })
    }

    /// Sends one request line.
    ///
    /// # Errors
    ///
    /// Stream write failure.
    pub fn send(&mut self, req: &Request) -> std::io::Result<()> {
        write_line(&mut self.writer, req)
    }

    /// Reads the next response line (`None` on a clean close).
    ///
    /// # Errors
    ///
    /// Stream read failure or a malformed line.
    pub fn recv(&mut self) -> std::io::Result<Option<Response>> {
        read_line(&mut self.reader)
    }

    /// Submits a closure request and blocks until its terminal response,
    /// feeding every streamed line to `on_event`. Returns the request id
    /// and the outcome JSON on success.
    ///
    /// # Errors
    ///
    /// Stream failure, a daemon `Error`/`Failed` line, or a stream that
    /// closed before the terminal response.
    pub fn submit(
        &mut self,
        spec: SubmitSpec,
        mut on_event: impl FnMut(&Response),
    ) -> std::io::Result<(u64, String)> {
        self.send(&Request::Submit(spec))?;
        loop {
            let resp = self
                .recv()?
                .ok_or_else(|| err("daemon closed the stream before the outcome"))?;
            on_event(&resp);
            match resp {
                Response::Done {
                    request,
                    outcome_json,
                } => return Ok((request, outcome_json)),
                Response::Failed { request, error } => {
                    return Err(err(&format!("request {request} failed: {error}")))
                }
                Response::Error { code, error } => {
                    return Err(err(&format!(
                        "daemon rejected the request ({code}): {error}"
                    )))
                }
                _ => {}
            }
        }
    }

    /// One status snapshot of every request the daemon tracks.
    ///
    /// # Errors
    ///
    /// Stream failure or an unexpected response.
    pub fn status(&mut self) -> std::io::Result<Vec<RequestStatus>> {
        self.send(&Request::Status)?;
        match self.recv()? {
            Some(Response::Status { requests }) => Ok(requests),
            Some(Response::Error { code, error }) => Err(err(&format!("{code}: {error}"))),
            other => Err(err(&format!("unexpected status answer: {other:?}"))),
        }
    }

    /// Cancels a request; `Ok(true)` when any of its sessions was still
    /// cancellable.
    ///
    /// # Errors
    ///
    /// Stream failure or an unexpected response.
    pub fn cancel(&mut self, request: u64) -> std::io::Result<bool> {
        self.send(&Request::Cancel { request })?;
        match self.recv()? {
            Some(Response::Cancelled { ok, .. }) => Ok(ok),
            Some(Response::Error { code, error }) => Err(err(&format!("{code}: {error}"))),
            other => Err(err(&format!("unexpected cancel answer: {other:?}"))),
        }
    }

    /// Asks the daemon to drain and exit.
    ///
    /// # Errors
    ///
    /// Stream failure or an unexpected response.
    pub fn shutdown(&mut self) -> std::io::Result<()> {
        self.send(&Request::Shutdown)?;
        match self.recv()? {
            Some(Response::ShuttingDown) | None => Ok(()),
            Some(Response::Error { code, error }) => Err(err(&format!("{code}: {error}"))),
            other => Err(err(&format!("unexpected shutdown answer: {other:?}"))),
        }
    }
}

fn err(msg: &str) -> std::io::Error {
    std::io::Error::other(msg.to_owned())
}

/// Polls a daemon's `serve.addr` handshake file until it appears (or the
/// deadline passes) and returns the bound address. The way scripts and
/// tests find a daemon started with port `0`.
///
/// # Errors
///
/// Timeout waiting for the daemon to bind.
pub fn wait_for_addr(state_dir: &Path, timeout: Duration) -> std::io::Result<String> {
    wait_for_addr_file(state_dir, "serve.addr", timeout)
}

/// Like [`wait_for_addr`], but for the HTTP introspection plane's
/// `serve.http.addr` handshake (only written when the plane is enabled).
///
/// # Errors
///
/// Timeout waiting for the daemon to bind its HTTP listener.
pub fn wait_for_http_addr(state_dir: &Path, timeout: Duration) -> std::io::Result<String> {
    wait_for_addr_file(state_dir, "serve.http.addr", timeout)
}

fn wait_for_addr_file(state_dir: &Path, file: &str, timeout: Duration) -> std::io::Result<String> {
    let deadline = Instant::now() + timeout;
    let path = state_dir.join(file);
    loop {
        if let Ok(addr) = std::fs::read_to_string(&path) {
            let addr = addr.trim().to_owned();
            if !addr.is_empty() {
                return Ok(addr);
            }
        }
        if Instant::now() >= deadline {
            return Err(err(&format!(
                "daemon never wrote {} within {timeout:?}",
                path.display()
            )));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn client_stream_disables_nagle() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let client = Client::connect(&addr).unwrap();
        assert!(client.writer.nodelay().unwrap());
        assert!(client.reader.get_ref().nodelay().unwrap());
    }
}
