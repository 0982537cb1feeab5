//! The `ihtl-router` daemon: fronts a fleet of `ihtl-serve` shard workers,
//! owns dataset placement, and merges per-shard sweep results (DESIGN.md
//! §14). Speaks the same line-delimited JSON protocol as the workers.

use ihtl_router::{Router, RouterConfig};
use ihtl_serve::argv::{announce_listening, parse_or_exit, FlagSpec, PORT_FILE};

const FLAGS: &[FlagSpec] = &[
    FlagSpec {
        name: "addr",
        value: Some("HOST:PORT"),
        help: "bind address (default 127.0.0.1:7410; port 0 = ephemeral)",
    },
    FlagSpec {
        name: "workers",
        value: Some("HOST:PORT,..."),
        help: "comma-separated worker addresses; one shard per worker, in order (required)",
    },
    FlagSpec {
        name: "worker-timeout-ms",
        value: Some("N"),
        help: "connect/read/write timeout per worker RPC in ms (default 30000)",
    },
    PORT_FILE,
];

fn main() {
    let args =
        parse_or_exit("ihtl-router", "--workers LIST [options]", FLAGS, std::env::args().skip(1));
    let mut cfg = RouterConfig {
        addr: args.get_or("addr", "127.0.0.1:7410").to_string(),
        workers: args
            .get_or("workers", "")
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect(),
        ..RouterConfig::default()
    };
    let numeric = (|| -> Result<(), String> {
        let default_ms = cfg.worker_timeout.as_millis() as usize;
        let ms = args.get_usize("worker-timeout-ms", default_ms)?;
        cfg.worker_timeout = std::time::Duration::from_millis(ms as u64);
        Ok(())
    })();
    if let Err(msg) = numeric {
        eprintln!("error: {msg}");
        std::process::exit(2);
    }

    let router = Router::bind(cfg).unwrap_or_else(|e| {
        eprintln!("error: binding listener: {e}");
        std::process::exit(1);
    });
    announce_listening("ihtl-router", &args, router.local_addr());
    router.run();
    println!("ihtl-router stopped");
}
