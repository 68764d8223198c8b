//! The client side of the framed protocol, on in-memory buffers.
//!
//! Every request travels the full path a served frame takes: the client
//! writes a frame, the server reads and parses it, executes it, renders
//! and writes the response frame, and the client reads it back. Client
//! and server run on one thread, one request at a time (a closed loop
//! with a single client).

use std::time::Instant;

use bane_serve::proto::{parse_request, read_frame, write_frame, Request, Response};

use crate::trace::Tracer;

/// The span an `execute` call of `req` is recorded under.
fn execute_span(fleet: bool, req: &Request) -> &'static str {
    let commit = matches!(req, Request::Commit);
    let read = matches!(req, Request::PointsTo(_) | Request::Alias(..));
    match (fleet, commit, read) {
        (false, true, _) => "serve.session.commit",
        (false, _, true) => "serve.session.query",
        (false, _, _) => "serve.session.stage",
        (true, true, _) => "serve.fleet.commit",
        (true, _, true) => "serve.fleet.query",
        (true, _, _) => "serve.fleet.stage",
    }
}

/// Request and response buffers, reused across requests.
#[derive(Default)]
pub struct Wire {
    request: Vec<u8>,
    response: Vec<u8>,
}

/// One answered request.
pub struct Reply {
    /// The response text the client read.
    pub text: String,
    /// Time spent in `execute`, in nanoseconds (traced runs only; 0
    /// otherwise).
    pub execute_ns: u64,
}

impl Wire {
    /// Sends `text` and returns the reply; `execute` runs the parsed
    /// request against the server's state. `fleet` names the server kind
    /// in span names.
    pub fn round_trip(
        &mut self,
        tr: &mut Tracer,
        text: &str,
        fleet: bool,
        execute: impl FnOnce(Request) -> Response,
    ) -> Reply {
        tr.next_request();
        let Wire { request, response } = self;
        tr.span("serve.proto.client", || {
            request.clear();
            write_frame(request, text)
        })
        .expect("writing to memory cannot fail");
        let parsed = tr.span("serve.proto.decode", || {
            let line = read_frame(&mut request.as_slice()).expect("a whole frame was written");
            parse_request(&line.expect("one frame is buffered"))
        });
        let mut execute_ns = 0;
        let reply = match parsed {
            Ok(req) => {
                let span = tr.start(execute_span(fleet, &req));
                let clock = tr.is_on().then(Instant::now);
                let reply = execute(req);
                execute_ns = clock.map_or(0, |c| c.elapsed().as_nanos() as u64);
                tr.end(span);
                reply
            }
            Err(e) => Response::Err(e),
        };
        tr.span("serve.proto.encode", || {
            response.clear();
            write_frame(response, &reply.render())
        })
        .expect("writing to memory cannot fail");
        let text = tr
            .span("serve.proto.client", || {
                read_frame(&mut response.as_slice())
            })
            .expect("a whole frame was written")
            .expect("one frame is buffered");
        Reply { text, execute_ns }
    }
}
