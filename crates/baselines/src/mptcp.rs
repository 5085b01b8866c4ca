//! Multipath TCP's coupled increase, LIA (RFC 6356), for the paper's
//! high-throughput baseline [31].
//!
//! MPTCP is the TCP family's [`Flavour::Mptcp`](crate::tcp::Flavour): the
//! one [`crate::tcp`] sender and receiver run [`N_SUBFLOWS`] byte streams,
//! each pinned to a distinct (randomly chosen) path tag, claiming the
//! transfer from one shared pool. Each subflow runs TCP's NewReno loss
//! recovery with a 10 ms RTO floor and reacts to it exactly as a TCP flow
//! does, an RTO expiry going back N included; only the *increase* is
//! coupled, and it is all this file holds:
//!
//! ```text
//! per ack:  cwnd_r += min( a · bytes / cwnd_total , bytes / cwnd_r )
//! a = cwnd_total · max_r(cwnd_r / rtt_r²) / ( Σ_r cwnd_r / rtt_r )²
//! ```

use ndp_sim::Time;

use crate::tcp::Subflow;

/// Subflows per connection (the paper's MPTCP runs eight).
pub(crate) const N_SUBFLOWS: usize = 8;

/// RFC 6356 coupled-increase coefficient over a flow's subflows.
pub(crate) fn lia_alpha(subs: &[Subflow]) -> f64 {
    let total: u64 = subs.iter().map(|s| s.rec.cwnd).sum();
    if total == 0 {
        return 1.0;
    }
    let mut best = 0.0f64;
    let mut denom = 0.0f64;
    for s in subs {
        let rtt = s.rec.srtt.unwrap_or(Time::from_us(100)).as_secs().max(1e-9);
        best = best.max(s.rec.cwnd as f64 / (rtt * rtt));
        denom += s.rec.cwnd as f64 / rtt;
    }
    if denom <= 0.0 {
        return 1.0;
    }
    total as f64 * best / (denom * denom)
}

/// RFC 6356 congestion-avoidance increment for one subflow:
/// `min(alpha · bytes · mss / total_cwnd, bytes · mss / cwnd)` — coupled
/// growth, capped by what a regular TCP would do.
pub fn lia_increment(alpha: f64, newly: u64, mss: u64, total_cwnd: u64, cwnd: u64) -> u64 {
    let inc_coupled = alpha * newly as f64 * mss as f64 / total_cwnd.max(1) as f64;
    let inc_uncoupled = newly as f64 * mss as f64 / cwnd.max(1) as f64;
    inc_coupled.min(inc_uncoupled).max(1.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::{attach_tcp_flow, NewReno, TcpCfg, TcpSender};
    use ndp_net::{Host, Packet};
    use ndp_sim::{Speed, World};
    use ndp_topology::{FatTree, FatTreeCfg, QueueSpec, SingleBottleneck};

    #[test]
    fn mptcp_fills_a_fat_tree_path_bundle() {
        let mut w: World<Packet> = World::new(1);
        let cfg = FatTreeCfg::new(4).with_fabric(QueueSpec::droptail_default());
        let ft = FatTree::build(&mut w, cfg);
        let size = 20_000_000u64;
        attach_tcp_flow(
            &mut w,
            1,
            (ft.hosts[0], 0),
            (ft.hosts[15], 15),
            TcpCfg::mptcp(size),
            Time::ZERO,
        );
        w.run_until(Time::from_ms(200));
        assert_eq!(w.get::<Host>(ft.hosts[15]).harvest(1).delivered_bytes, size);
        let tx = w.get::<Host>(ft.hosts[0]).endpoint::<TcpSender>(1);
        let fct = tx.tx.fct().unwrap();
        let goodput = size as f64 * 8.0 / fct.as_secs() / 1e9;
        assert!(
            goodput > 7.0,
            "8 subflows should fill most of the 10G access link: {goodput:.2}"
        );
    }

    #[test]
    fn lia_alpha_is_one_for_identical_subflows() {
        let subs: Vec<Subflow> = (0..N_SUBFLOWS)
            .map(|_| {
                let mut rec = NewReno::new(2, 8936, Time::from_ms(10));
                rec.cwnd = 100_000;
                rec.srtt = Some(Time::from_us(100));
                Subflow {
                    path: 0,
                    claimed: 0,
                    rec,
                }
            })
            .collect();
        let a = lia_alpha(&subs);
        // For n identical subflows, alpha = total*·(c/r²)/(n·c/r)² = 1/n·...
        // numerically: total=8c, best=c/r², denom=8c/r → a = 8c·c/r² / 64c²/r² = 1/8.
        assert!((a - 1.0 / 8.0).abs() < 1e-9, "alpha {a}");
    }

    #[test]
    fn coupled_increase_is_an_eighth_of_uncoupled_for_equal_subflows() {
        // LIA's defining property: with 8 identical healthy subflows, the
        // aggregate grows like ONE regular TCP, i.e. each subflow gets
        // roughly 1/8 of the uncoupled increment.
        let mss = 8936u64;
        let c = 100 * mss;
        let total = 8 * c;
        let alpha = 1.0 / 8.0; // from lia_alpha_is_one_for_identical_subflows
        let coupled = lia_increment(alpha, mss, mss, total, c);
        let uncoupled = lia_increment(1e9, mss, mss, c, c); // cap side
        assert_eq!(uncoupled, mss * mss / c);
        // coupled = (1/8)·mss²/(8c) = uncoupled/64 per subflow, so the
        // 8-subflow aggregate grows at uncoupled/8 — one TCP's worth.
        assert!(
            coupled * 8 <= uncoupled,
            "coupled {coupled} must be well below uncoupled {uncoupled}"
        );
        // Never zero: growth must not stall entirely.
        assert!(coupled >= 1);
    }

    /// LIA's goal on a shared bottleneck (RFC 6356 §1): an MPTCP flow
    /// takes no more capacity than one TCP flow would. A TCP flow runs
    /// alone on a drop-tail link for 20 ms (two slow starts at once lock
    /// one flow out behind a 200 ms RTO), then an MPTCP flow joins. With
    /// the coupled increase the MPTCP flow ends with under half of what
    /// the link delivered (0.25); eight subflows each growing like a Reno
    /// flow take 0.93.
    #[test]
    fn mptcp_takes_no_more_than_one_tcps_share_of_a_shared_bottleneck() {
        let mut w: World<Packet> = World::new(3);
        let sb = SingleBottleneck::build(
            &mut w,
            2,
            Speed::gbps(10),
            Time::from_us(1),
            9000,
            QueueSpec::droptail_default(),
        );
        let size = u64::from(u32::MAX);
        let flows = [
            (TcpCfg::mptcp(size), Time::from_ms(20)),
            (TcpCfg::new(size), Time::ZERO),
        ];
        for (s, (cfg, start)) in flows.into_iter().enumerate() {
            let src = (sb.senders[s], s as u32);
            attach_tcp_flow(&mut w, s as u64 + 1, src, (sb.receiver, 2), cfg, start);
        }
        w.run_until(Time::from_secs(1));
        let rx = w.get::<Host>(sb.receiver);
        let [mptcp, tcp] = [1, 2].map(|flow| rx.harvest(flow).delivered_bytes as f64);
        let share = mptcp / (mptcp + tcp);
        assert!(
            mptcp > 0.0 && share < 0.5,
            "MPTCP took {share:.3} of the bottleneck ({mptcp} vs {tcp} B)"
        );
    }
}
