//! `prio serve` — run the prioritization daemon.
//!
//! ```text
//! prio serve [--listen ADDR | --stdio] [--serve-threads N] [--queue-cap N]
//!            [--cache-bytes N] [--max-request-bytes N] [--format F]
//! ```
//!
//! Speaks the line-delimited JSON protocol of `prio_serve::protocol`: one
//! request per line, one id-matched response line per request. `--listen`
//! (default `127.0.0.1:7077`; use port `0` for an ephemeral port) serves
//! TCP connections until a `shutdown` verb arrives; `--stdio` serves a
//! single session over stdin/stdout and exits at EOF. `--format` sets the
//! default input format for requests that name none (`auto` = content
//! detection). Combine with the global `--metrics-out F` to write a
//! Prometheus snapshot — including the `serve.request.micros` latency
//! histogram and the `serve.queue.shed` counter — when the daemon exits.

use crate::args::Args;
use crate::commands::named_frontend;
use crate::error::CliError;
use prio_serve::{serve_stdio, ServeConfig, ServeStats, Server};
use std::io::Write;

/// The flags `prio serve` accepts.
const FLAGS: &[&str] = &[
    "listen",
    "stdio",
    "serve-threads",
    "queue-cap",
    "cache-bytes",
    "max-request-bytes",
    "format",
];

pub fn run(argv: &[String]) -> Result<(), CliError> {
    let args = Args::parse(argv, FLAGS)?;
    if !args.positional.is_empty() {
        return Err(CliError::usage("serve takes no positional arguments"));
    }
    if args.has("stdio") && args.get("listen").is_some() {
        return Err(CliError::usage(
            "--stdio and --listen are mutually exclusive",
        ));
    }
    let default = ServeConfig::default();
    let config = ServeConfig {
        threads: args.get_parsed("serve-threads", default.threads)?,
        queue_capacity: args.get_parsed("queue-cap", default.queue_capacity)?,
        cache_bytes: args.get_parsed("cache-bytes", default.cache_bytes)?,
        max_request_bytes: args.get_parsed("max-request-bytes", default.max_request_bytes)?,
        // Fail at startup, not per request, on a bad flag value.
        default_format: named_frontend(&prio_dagman::registry(), args.get("format"))?
            .and(args.get("format"))
            .map(str::to_string),
        worker_delay: std::time::Duration::ZERO,
    };
    if config.threads == 0 {
        return Err(CliError::usage("--serve-threads must be at least 1"));
    }
    if config.queue_capacity == 0 {
        return Err(CliError::usage("--queue-cap must be at least 1"));
    }

    let stats = if args.has("stdio") {
        serve_stdio(config)
    } else {
        let addr = args.get("listen").unwrap_or("127.0.0.1:7077");
        let server = Server::bind(addr, config)
            .map_err(|e| CliError::input(format!("cannot listen on {addr}: {e}")))?;
        // The resolved address matters with port 0; scripts scrape it.
        // One write: `eprintln!` writes each formatted piece separately,
        // so a script polling the stream could read "serving on " with
        // no address yet.
        let line = format!("prio: serving on {}\n", server.local_addr());
        let _ = std::io::stderr().write_all(line.as_bytes());
        server.wait()
    };
    print_summary(&stats);
    Ok(())
}

fn print_summary(s: &ServeStats) {
    eprintln!(
        "prio: serve exiting: {} received, {} ok, {} errors, {} shed, \
         cache {} hits / {} misses ({} entries, {} bytes)",
        s.received,
        s.ok,
        s.errors,
        s.shed,
        s.cache.hits,
        s.cache.misses,
        s.cache.entries,
        s.cache.bytes
    );
}
