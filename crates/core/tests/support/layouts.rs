//! Shard layouts cut by hand, for holding a fold's merge to the serial
//! result whatever the machine's parallelism.

/// Shard layouts over `n` episodes, each as its cut points: even splits
/// into two to five shards, and cuts placed just before and just after the
/// first use of some shape (`first_uses`, ascending positions), so a shape
/// first seen in one shard recurs in later ones and a shard can open on a
/// shape an earlier one introduced.
pub fn layouts(n: usize, first_uses: &[usize]) -> Vec<Vec<usize>> {
    let mut layouts: Vec<Vec<usize>> = (2..=5)
        .map(|k| (1..k).map(|j| j * n / k).collect())
        .collect();
    let late = &first_uses[first_uses.len() / 2..];
    layouts.push(late.iter().take(3).copied().collect());
    layouts.push(late.iter().take(4).map(|&p| p + 1).collect());
    layouts
        .into_iter()
        .map(|mut cuts| {
            cuts.retain(|&c| 0 < c && c < n);
            cuts.dedup();
            cuts
        })
        .collect()
}
