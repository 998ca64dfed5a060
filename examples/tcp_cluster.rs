//! The SD-Rtree over real sockets: spins up a TCP deployment on
//! localhost, grows it through splits, and queries it from two
//! independent clients. Self-checking: every answer is compared against
//! a brute-force scan of the inserted grid, and the run must lose no
//! message.
//!
//! ```bash
//! cargo run --release --example tcp_cluster
//! ```

use sd_rtree::net::{NetClient, NetCluster};
use sd_rtree::{Object, Oid, Point, Rect, SdrConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Every server is a thread with its own listener; servers spawn
    // themselves as splits happen.
    let cluster = NetCluster::launch(SdrConfig::with_capacity(200))?;
    println!("deployment up (server 0 listening)");

    let grid: Vec<Object> = (0..2_000u64)
        .map(|i| {
            let x = (i % 50) as f64 / 50.0;
            let y = (i / 50) as f64 / 50.0;
            Object::new(Oid(i), Rect::new(x, y, x + 0.012, y + 0.012))
        })
        .collect();
    let mut writer = NetClient::connect(&cluster)?;
    println!("inserting {} objects over TCP...", grid.len());
    for obj in &grid {
        writer.insert(*obj)?;
    }
    writer.quiesce()?;
    println!("cluster grew to {} servers", cluster.num_servers());

    // A second client with a cold image: its first query goes to its
    // contact server and gets repaired; the IAM teaches it the tree.
    let mut reader = NetClient::connect(&cluster)?;
    let window = Rect::new(0.40, 0.40, 0.60, 0.60);
    let hits = reader.window_query(window)?;
    println!("window query over the center: {} objects", hits.len());
    let want = grid.iter().filter(|o| o.mbb.intersects(&window)).count();
    assert_eq!(hits.len(), want, "window query against brute force");
    println!(
        "reader image now knows {} servers (started with 0)",
        reader.image().known_servers()
    );

    let probe = Point::new(0.5005, 0.5005);
    let at = reader.point_query(probe)?;
    println!("point query at (0.5005, 0.5005): {} object(s)", at.len());
    let want = grid.iter().filter(|o| o.mbb.contains_point(&probe)).count();
    assert_eq!(at.len(), want, "point query against brute force");

    let obj = *at.first().ok_or("the probe hit nothing to delete")?;
    let removed = reader.delete(obj)?;
    println!("deleted {}: {}", obj.oid, removed);
    assert!(removed, "the delete found its object");

    assert_eq!(cluster.delivery_failures(), 0, "a message was lost");
    cluster.shutdown();
    println!("answers match brute force, no message lost ✓");
    println!("deployment stopped ✓");
    Ok(())
}
