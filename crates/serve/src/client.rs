//! A small blocking client for the analysis service — the engine behind
//! `mct query`, and the harness the integration tests drive.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::json::Json;

/// One connection to a running `mct serve` daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects, with a 10-second I/O timeout on both directions and
    /// Nagle's algorithm off (every request is one complete message).
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(Duration::from_secs(10)))?;
        writer.set_write_timeout(Some(Duration::from_secs(10)))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { reader, writer })
    }

    /// Sends one request line and reads one response line.
    ///
    /// # Errors
    ///
    /// I/O failures, a closed connection, or an unparseable response.
    pub fn request(&mut self, request: &Json) -> std::io::Result<Json> {
        self.writer.write_all(&request.to_line())?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Json::parse(line.trim()).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("bad response from server: {e}"),
            )
        })
    }

    /// Submits a netlist for analysis.
    ///
    /// `format` is `"bench"` or `"blif"`; `options` is a partial
    /// [`MctOptions`](mct_core::MctOptions) overlay (see
    /// [`crate::report::options_overlay`]).
    ///
    /// # Errors
    ///
    /// Transport failures ([`Self::request`]); protocol-level failures
    /// come back as `error`/`busy` response objects.
    pub fn analyze(
        &mut self,
        netlist: &str,
        format: &str,
        name: Option<&str>,
        options: Option<&Json>,
    ) -> std::io::Result<Json> {
        let mut fields = vec![
            ("type".into(), Json::Str("analyze".into())),
            ("format".into(), Json::Str(format.into())),
            ("netlist".into(), Json::Str(netlist.into())),
        ];
        if let Some(name) = name {
            fields.push(("name".into(), Json::Str(name.into())));
        }
        if let Some(options) = options {
            fields.push(("options".into(), options.clone()));
        }
        self.request(&Json::Obj(fields))
    }

    /// Submits several netlists in one round trip.
    ///
    /// Each item is `(netlist, format, name)`; `options` applies to every
    /// item. The response is a `batch` envelope whose `responses` array
    /// holds one `report`/`error` envelope per item, in submission order,
    /// each tagged with its zero-based `seq`.
    ///
    /// # Errors
    ///
    /// Transport failures ([`Self::request`]); per-item failures come
    /// back as `error` objects inside the `responses` array.
    pub fn batch(
        &mut self,
        items: &[(&str, &str, Option<&str>)],
        options: Option<&Json>,
    ) -> std::io::Result<Json> {
        let requests = items
            .iter()
            .map(|(netlist, format, name)| {
                let mut fields = vec![
                    ("type".into(), Json::Str("analyze".into())),
                    ("format".into(), Json::Str((*format).into())),
                    ("netlist".into(), Json::Str((*netlist).into())),
                ];
                if let Some(name) = name {
                    fields.push(("name".into(), Json::Str((*name).into())));
                }
                if let Some(options) = options {
                    fields.push(("options".into(), options.clone()));
                }
                Json::Obj(fields)
            })
            .collect();
        self.request(&Json::Obj(vec![
            ("type".into(), Json::Str("batch".into())),
            ("requests".into(), Json::Arr(requests)),
        ]))
    }

    /// Fetches the server's aggregate counters.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn stats(&mut self) -> std::io::Result<Json> {
        self.request(&Json::Obj(vec![("type".into(), Json::Str("stats".into()))]))
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn ping(&mut self) -> std::io::Result<Json> {
        self.request(&Json::Obj(vec![("type".into(), Json::Str("ping".into()))]))
    }

    /// Asks the server to drain and exit.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn shutdown(&mut self) -> std::io::Result<Json> {
        self.request(&Json::Obj(vec![(
            "type".into(),
            Json::Str("shutdown".into()),
        )]))
    }
}
