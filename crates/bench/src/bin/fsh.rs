//! `fsh` — an interactive far-memory shell.
//!
//! A small REPL over the library: build a fabric, poke at an HT-tree map,
//! a blob store and a queue, and watch the far-access accounting live.
//! Scriptable from stdin:
//!
//! ```text
//! $ echo "put 1 100\nget 1\nstats\nquit" | cargo run -p farmem-bench --bin fsh
//! ```

use std::collections::HashMap;
use std::io::{BufRead, Write as _};
use std::sync::Arc;

use farmem_alloc::FarAlloc;
use farmem_core::{
    CoreError, FarBlobMap, FarQueue, HtTree, HtTreeConfig, QueueConfig, RecordHint,
};
use farmem_fabric::{Fabric, FabricClient, FabricConfig, Striping};

struct Shell {
    fabric: Arc<Fabric>,
    client: FabricClient,
    map: farmem_core::HtTreeHandle,
    blobs: FarBlobMap,
    /// Where each `bput` put its record: what makes the key's `bget` one
    /// far access instead of two.
    blob_hints: HashMap<u64, RecordHint>,
    queue: farmem_core::QueueHandle,
    last_stats: farmem_fabric::AccessStats,
}

impl Shell {
    fn new(nodes: u32) -> Result<Shell, CoreError> {
        let fabric = FabricConfig {
            nodes,
            node_capacity: 256 << 20,
            striping: if nodes > 1 {
                Striping::Striped { stripe: 1 << 20 }
            } else {
                Striping::Blocked
            },
            ..FabricConfig::default()
        }
        .build();
        let alloc = FarAlloc::new(fabric.clone());
        let mut client = fabric.client();
        let cfg = HtTreeConfig::default();
        let tree = HtTree::create(&mut client, &alloc, cfg)?;
        let map = tree.attach(&mut client, &alloc, cfg)?;
        let blob_tree = HtTree::create(&mut client, &alloc, cfg)?;
        let blobs = FarBlobMap::attach(&mut client, &alloc, blob_tree, cfg)?;
        let q = FarQueue::create(&mut client, &alloc, QueueConfig::new(4096, 16))?;
        let queue = FarQueue::attach(&mut client, q.hdr())?;
        let last_stats = client.stats();
        Ok(Shell { fabric, client, map, blobs, blob_hints: HashMap::new(), queue, last_stats })
    }

    fn cost_line(&mut self) -> String {
        let now = self.client.stats();
        let d = now.since(&self.last_stats);
        self.last_stats = now;
        format!(
            "[{} far access(es), {} msg, {} B]",
            d.round_trips,
            d.messages,
            d.bytes_total()
        )
    }

    fn dispatch(&mut self, line: &str) -> Result<Option<String>, CoreError> {
        let parts: Vec<&str> = line.split_whitespace().collect();
        let reply = match parts.as_slice() {
            [] => return Ok(Some(String::new())),
            ["help"] => concat!(
                "commands:\n",
                "  put <key> <value>      store into the HT-tree map\n",
                "  get <key>              look up (ONE far access)\n",
                "  del <key>              remove; prints the value taken (TWO far accesses)\n",
                "  scan <lo> <hi>         sorted range scan\n",
                "  len                    far-side item-count estimate\n",
                "  bput <key> <text...>   store a blob (the shell keeps its record hint)\n",
                "  bget <key>             fetch a blob (ONE far access with the hint)\n",
                "  enq <value> | deq      far queue ops\n",
                "  stats                  cumulative client counters\n",
                "  time                   virtual clock\n",
                "  quit"
            )
            .to_string(),
            ["put", k, v] => {
                let (k, v) = (parse(k)?, parse(v)?);
                self.map.put(&mut self.client, k, v)?;
                format!("ok {}", self.cost_line())
            }
            ["get", k] => {
                let k = parse(k)?;
                let r = self.map.get(&mut self.client, k)?;
                format!("{r:?} {}", self.cost_line())
            }
            ["del", k] => {
                let k = parse(k)?;
                let r = self.map.take(&mut self.client, k)?;
                format!("{r:?} {}", self.cost_line())
            }
            ["scan", lo, hi] => {
                let r = self.map.scan(&mut self.client, parse(lo)?, parse(hi)?)?;
                format!("{} pairs: {:?} {}", r.len(), r, self.cost_line())
            }
            ["len"] => {
                let n = self.map.len_estimate(&mut self.client)?;
                format!("~{n} items {}", self.cost_line())
            }
            ["bput", k, rest @ ..] => {
                let (k, text) = (parse(k)?, rest.join(" "));
                let (_, hint) = self.blobs.put(&mut self.client, k, [], text.as_bytes())?;
                self.blob_hints.insert(k, hint);
                format!("ok ({} bytes) {}", text.len(), self.cost_line())
            }
            ["bget", k] => {
                let k = parse(k)?;
                let mut hint = self.blob_hints.get(&k).copied();
                match self.blobs.get_if(&mut self.client, k, &mut hint, |[]| true)?.flatten() {
                    Some(bytes) => format!(
                        "{:?} {}",
                        String::from_utf8_lossy(&bytes),
                        self.cost_line()
                    ),
                    None => format!("(none) {}", self.cost_line()),
                }
            }
            ["enq", v] => {
                self.queue.enqueue(&mut self.client, parse(v)?)?;
                format!("ok {}", self.cost_line())
            }
            ["deq"] => match self.queue.dequeue(&mut self.client) {
                Ok(v) => format!("{v} {}", self.cost_line()),
                Err(CoreError::QueueEmpty) => format!("(empty) {}", self.cost_line()),
                Err(e) => return Err(e),
            },
            ["stats"] => {
                let s = self.client.stats();
                format!(
                    "round_trips={} messages={} posted={} bytes_r={} bytes_w={} \
                     atomics={} notifications={} near={} | fabric: {} node(s)",
                    s.round_trips,
                    s.messages,
                    s.posted_messages,
                    s.bytes_read,
                    s.bytes_written,
                    s.atomics,
                    s.notifications,
                    s.near_accesses,
                    self.fabric.map().node_count(),
                )
            }
            ["time"] => format!("virtual t = {:.3} ms", self.client.now_ns() as f64 / 1e6),
            ["quit"] | ["exit"] => return Ok(None),
            other => format!("unknown command {other:?}; try `help`"),
        };
        Ok(Some(reply))
    }
}

fn parse(s: &str) -> Result<u64, CoreError> {
    s.parse().map_err(|_| CoreError::BadConfig("expected an unsigned integer"))
}

fn main() {
    let nodes = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    let mut shell = Shell::new(nodes).expect("fabric setup");
    println!("fsh — far-memory shell over a {nodes}-node fabric. `help` lists commands.");
    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    loop {
        print!("fsh> ");
        out.flush().ok();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        match shell.dispatch(line.trim()) {
            Ok(Some(reply)) => {
                if !reply.is_empty() {
                    println!("{reply}");
                }
            }
            Ok(None) => break,
            Err(e) => println!("error: {e}"),
        }
    }
}
