//! The `ihtl-serve` daemon: binds a TCP port and serves graph analytics
//! over the line-delimited JSON protocol (see DESIGN.md).

use ihtl_serve::argv::{announce_listening, parse_or_exit, FlagSpec, PORT_FILE};
use ihtl_serve::{Server, ServerConfig};

const FLAGS: &[FlagSpec] = &[
    FlagSpec {
        name: "addr",
        value: Some("HOST:PORT"),
        help: "bind address (default 127.0.0.1:7411; port 0 = ephemeral)",
    },
    PORT_FILE,
    FlagSpec { name: "queue", value: Some("N"), help: "admission queue capacity (default 16)" },
    FlagSpec { name: "executors", value: Some("N"), help: "executor threads (default 1)" },
    FlagSpec {
        name: "cache",
        value: Some("N"),
        help: "result cache entries (default 64, 0 = off)",
    },
    FlagSpec {
        name: "idle-timeout-ms",
        value: Some("N"),
        help: "close connections idle for N ms (default 30000, 0 = never)",
    },
    FlagSpec {
        name: "max-batch",
        value: Some("K"),
        help: "max coalesced queries per SpMM sweep (default 8, 1 = off)",
    },
    FlagSpec {
        name: "store-dir",
        value: Some("PATH"),
        help: "durable artifact store root (default: no store; builds are not persisted)",
    },
    FlagSpec {
        name: "mem-budget-mb",
        value: Some("N"),
        help: "warm-artifact memory budget in MiB; LRU datasets demote to the store \
               (default: unlimited)",
    },
];

fn main() {
    let args = parse_or_exit("ihtl-serve", "[options]", FLAGS, std::env::args().skip(1));
    let mut cfg = ServerConfig {
        addr: args.get_or("addr", "127.0.0.1:7411").to_string(),
        ..ServerConfig::default()
    };
    let numeric = (|| -> Result<(), String> {
        cfg.queue_capacity = args.get_usize("queue", cfg.queue_capacity)?;
        cfg.executors = args.get_usize("executors", cfg.executors)?;
        cfg.cache_capacity = args.get_usize("cache", cfg.cache_capacity)?;
        let default_idle_ms = cfg.idle_timeout.map(|t| t.as_millis() as usize).unwrap_or(0);
        let idle_ms = args.get_usize("idle-timeout-ms", default_idle_ms)?;
        cfg.idle_timeout = (idle_ms > 0).then(|| std::time::Duration::from_millis(idle_ms as u64));
        cfg.max_batch = args.get_usize("max-batch", cfg.max_batch)?.max(1);
        cfg.store_dir = args.get("store-dir").map(str::to_string);
        if args.get("mem-budget-mb").is_some() {
            cfg.mem_budget_mb = Some(args.get_usize("mem-budget-mb", 0)? as u64);
        }
        Ok(())
    })();
    if let Err(msg) = numeric {
        eprintln!("error: {msg}");
        std::process::exit(2);
    }

    let server = Server::bind(cfg).unwrap_or_else(|e| {
        eprintln!("error: binding listener: {e}");
        std::process::exit(1);
    });
    announce_listening("ihtl-serve", &args, server.local_addr());
    server.run();
    println!("ihtl-serve stopped");
}
