//! Heap allocations per warm request in the daemon, pinned.
//!
//! A counting global allocator counts every thread of its process, so this
//! test has a binary of its own (`[[test]] alloc`) and that binary has one
//! test. It starts an in-process `fpm-serve`, registers the Table 2 MM
//! testbed and solves one `partition` synchronously, so the pipelined
//! bursts below are plan-cache hits rather than a queue behind the cold
//! solve. Over a raw connection it then writes prebuilt pipelined lines
//! and reads the replies into a preallocated buffer, so the client side
//! allocates nothing inside a counted window. After warm-up bursts (the
//! connection's buffers reach their size), a warm `partition` hit costs
//! exactly one allocation, the same as a `ping`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use fpm_serve::client::Client;
use fpm_serve::server::{spawn, ServerConfig};
use fpm_serve::AlgorithmId;

/// Counts every allocation (`alloc`, `alloc_zeroed` and `realloc`) of the
/// process.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method passes its arguments unchanged to `System`, so the
// guarantees its caller gives under `GlobalAlloc` are the ones `System`
// needs, and `System`'s results are returned as they are.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Requests per pipelined burst.
const BURST: usize = 1000;

/// Writes `lines` (`BURST` requests) and reads `BURST` replies into `buf`;
/// returns the allocations the process made meanwhile and the reply bytes.
fn burst(stream: &mut TcpStream, lines: &[u8], buf: &mut [u8]) -> (u64, usize) {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    stream.write_all(lines).expect("write burst");
    let (mut filled, mut replies) = (0, 0);
    while replies < BURST {
        let k = stream.read(&mut buf[filled..]).expect("read replies");
        assert!(
            k > 0,
            "server closed the connection after {replies} replies"
        );
        replies += buf[filled..filled + k]
            .iter()
            .filter(|&&b| b == b'\n')
            .count();
        filled += k;
    }
    (ALLOCATIONS.load(Ordering::SeqCst) - before, filled)
}

#[test]
fn a_warm_partition_hit_allocates_once_like_a_ping() {
    let handle = spawn(ServerConfig::default()).expect("spawn server");
    let mut client = Client::connect(handle.addr, Duration::from_secs(60)).expect("connect");
    client
        .register_testbed("table2", "table2", "mm", 0)
        .expect("register table2/mm");
    let n = 30_000_000;
    client
        .partition("table2", n, AlgorithmId::Combined, None)
        .expect("cold solve");

    let lines = |request: &str| -> Vec<u8> {
        (1..=BURST)
            .flat_map(|id| format!("{{\"id\":{id},{request}}}\n").into_bytes())
            .collect()
    };
    let partitions = lines(&format!(r#""verb":"partition","cluster":"table2","n":{n}"#));
    let pings = lines(r#""verb":"ping""#);
    let mut stream = TcpStream::connect(handle.addr).expect("connect raw");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let mut buf = vec![0u8; 1 << 20];

    for round in 0..6 {
        let (partition_allocs, filled) = burst(&mut stream, &partitions, &mut buf);
        let replies = std::str::from_utf8(&buf[..filled]).expect("utf-8 replies");
        assert_eq!(
            replies.matches(r#""ok":true"#).count(),
            BURST,
            "round {round}: {replies:.300}"
        );
        assert_eq!(
            replies.matches(r#""cached":true"#).count(),
            BURST,
            "round {round}"
        );
        let (ping_allocs, filled) = burst(&mut stream, &pings, &mut buf);
        let replies = std::str::from_utf8(&buf[..filled]).expect("utf-8 replies");
        assert_eq!(
            replies.matches(r#""pong":true"#).count(),
            BURST,
            "round {round}"
        );
        // Three warm-up rounds, then the pins.
        if round >= 3 {
            assert_eq!(
                partition_allocs, BURST as u64,
                "round {round}: partition burst"
            );
            assert_eq!(ping_allocs, BURST as u64, "round {round}: ping burst");
        }
    }
    drop(stream);
    drop(client);
    handle.shutdown_and_join();
}
