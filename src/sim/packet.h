// Packet-level discrete-event network simulator.
//
// This is the htsim-equivalent substrate for the testbed-scale experiments:
// store-and-forward switches with drop-tail output queues, full-duplex links
// with serialization + propagation delay, TCP Reno senders (slow start,
// AIMD, NewReno fast recovery, RTO with exponential backoff) and MPTCP with
// Linked-Increase (LIA) coupling across subflows. Routing is source-routed:
// every subflow carries its full path, exactly like the MAC-encoded source
// routes of §4.2.2.
//
// Run-time topology conversion (§4.3) is first-class: apply_conversion()
// swaps in a new realized graph and new subflow paths mid-run. Pipes
// (directional links) are identified by their node pair and persist across
// conversions; pipes whose cable was rewired drop their in-flight packets
// and, together with any pipe touched by the control-plane update, stall
// for the blackout window (OCS reconfiguration + rule updates, Table 3).
// Two blackout scopes model the paper's two operational styles:
//   kFullBlackout   all-at-once conversion — every switch's rules are
//                   rewritten, the whole fabric stalls (Figure 10)
//   kChangedOnly    gradual conversion — only rewired circuits stall;
//                   untouched pipes keep forwarding ("draining parts of the
//                   network incrementally", §4.3)
// Flows whose path set is unchanged by a conversion keep their congestion
// state (warm); re-pathed flows restart their subflows and recover through
// slow start — reproducing the 2-2.5 s re-convergence of Figure 10.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "net/graph.h"
#include "obs/sink.h"
#include "obs/telemetry.h"
#include "routing/path.h"
#include "sim/event_queue.h"

namespace flattree {

struct PacketSimOptions {
  double prop_delay_s{5e-6};
  std::uint32_t queue_packets{128};   // drop-tail depth per pipe
  std::uint32_t mtu_bytes{1500};
  std::uint32_t ack_bytes{64};
  double min_rto_s{0.02};
  double initial_rto_s{0.2};
  double max_rto_s{2.0};
  double init_cwnd{2.0};
  double initial_rtt_estimate_s{1e-3};
};

enum class ConversionScope : std::uint8_t {
  kFullBlackout,  // every pipe stalls for the blackout window
  kChangedOnly,   // only created/rewired pipes stall
};

class PacketSim {
 public:
  explicit PacketSim(PacketSimOptions options = PacketSimOptions{});

  // Installs the network (pipes from every link of the realized graph,
  // one per direction). Must be called once before adding flows.
  void set_network(const Graph& graph);

  // Adds a flow; bytes = 0 means persistent (iPerf-style). `subflow_paths`
  // are full server-to-server node paths on the current network.
  std::uint32_t add_flow(std::uint32_t src_server, std::uint32_t dst_server,
                         double bytes, double start_s,
                         std::vector<Path> subflow_paths);

  // Run the event loop until simulated time t.
  void run_until(double t_s);

  // Topology conversion at the current simulation time: new graph, new
  // per-flow subflow paths (provider is called with each flow index), and
  // the control-plane blackout. Pipes present in both graphs persist (their
  // in-flight traffic survives under kChangedOnly); removed pipes drop
  // their queues; flows whose new path set equals their current one keep
  // their congestion state.
  void apply_conversion(
      const Graph& graph,
      const std::function<std::vector<Path>(std::uint32_t)>& paths_for_flow,
      double blackout_s,
      ConversionScope scope = ConversionScope::kFullBlackout);

  // -- observability --------------------------------------------------------

  // Attaches the sink: caches metric handles (packet.drops, packet.fct_s,
  // packet.queue.depth_pkts, packet.cwnd_pkts, retransmit counters, ...) and
  // the tracer (flow-lifetime and conversion-blackout spans) so the hot
  // path only pays a null-pointer check when observability is off. Call
  // before running; a default-constructed sink detaches.
  void attach_obs(const obs::ObsSink& sink);

  // -- metrics --------------------------------------------------------------

  [[nodiscard]] double now() const { return now_; }
  // The subflow paths currently installed for a flow (post-conversion they
  // reflect the newest path set).
  [[nodiscard]] const std::vector<Path>& flow_paths(std::uint32_t flow) const;
  [[nodiscard]] std::uint64_t flow_bytes_acked(std::uint32_t flow) const;
  [[nodiscard]] bool flow_completed(std::uint32_t flow) const;
  [[nodiscard]] double flow_start_time(std::uint32_t flow) const;
  [[nodiscard]] double flow_finish_time(std::uint32_t flow) const;
  [[nodiscard]] std::uint64_t total_bytes_acked() const;
  // Per-flow telemetry (obs/telemetry.h), one record per flow in flow
  // order. Bytes are the transport-acked count at the current simulated
  // time, so an in-progress flow reports its partial delivery — the packet
  // half of the flow-record feed the demand estimator folds.
  [[nodiscard]] std::vector<obs::FlowRecord> export_flow_records() const;
  [[nodiscard]] std::uint64_t packets_dropped() const { return drops_; }
  [[nodiscard]] std::uint64_t events_processed() const { return events_done_; }
  [[nodiscard]] std::size_t flow_count() const { return flows_.size(); }
  // Engine high-water marks: max events simultaneously queued, and the
  // event arena's slot count (equal to heap_max: freed slots are reused).
  [[nodiscard]] std::uint64_t heap_max() const { return heap_max_; }
  [[nodiscard]] std::uint64_t arena_high_water() const {
    return queue_.arena_slots();
  }
  // Events pushed to the queue's binary heap rather than a lane: timers,
  // flow starts, sends held back by a blackout, and lane pushes that
  // arrived out of their lane's time order (see lane_of).
  [[nodiscard]] std::uint64_t heap_pushes() const {
    return queue_.heap_pushes();
  }

 private:
  // ---- data plane ----------------------------------------------------------
  struct Packet {
    std::uint32_t flow{0};
    std::uint32_t subflow{0};
    std::uint32_t seq{0};        // data: sequence; ack: cumulative ack
    std::uint32_t size{0};
    double send_time{0.0};       // data: tx time; ack: echoed tx time
    std::uint16_t hop{0};
    bool is_ack{false};
  };

  struct Pipe {
    double rate_bps{0.0};
    // Serialization time of a data and an ACK packet at rate_bps; every
    // packet is one of the two sizes (set_rate keeps them in step).
    double ser_s[2]{0.0, 0.0};
    double blocked_until{0.0};  // control-plane blackout gate
    std::uint64_t queued_bytes{0};
    sim::RingQueue<Packet> queue;  // flat drop-tail ring, no per-packet alloc
    bool transmitting{false};
    bool dead{false};  // cable no longer exists in the current topology
  };

  struct Subflow {
    bool alive{true};  // false once a conversion replaced this subflow
    std::uint32_t flow{0};
    std::vector<std::uint32_t> fwd_pipes;  // data path
    std::vector<std::uint32_t> rev_pipes;  // ack path
    // sender state
    double cwnd{2.0};
    double ssthresh{1e9};
    std::uint32_t next_seq{0};
    std::uint32_t cum_acked{0};
    std::uint32_t dup_acks{0};
    double srtt{0.0};
    double rttvar{0.0};
    double rto{0.2};
    // NewReno fast-recovery state: holes up to recover_point are
    // retransmitted one per partial ACK instead of one per RTO.
    bool in_recovery{false};
    std::uint32_t recover_point{0};
    // Retransmission timer: one outstanding kTimer event; progress pushes
    // rto_deadline forward and the handler re-arms instead of firing.
    bool timer_armed{false};
    double rto_deadline{0.0};
    // receiver state
    std::uint32_t expect_seq{0};
    sim::SeqWindow out_of_order;  // bitmap over the live reorder window
    // data-level bookkeeping: packets assigned to this subflow but not yet
    // cumulatively acked (returned to the flow pool on conversion).
    std::uint32_t inflight_assigned{0};
  };

  struct SimFlow {
    std::uint32_t src{0};
    std::uint32_t dst{0};
    std::int64_t total_packets{-1};  // -1 = persistent
    std::int64_t unassigned{0};      // packets not yet given to a subflow
    std::uint64_t packets_acked{0};
    std::uint64_t bytes_acked{0};
    double start_s{0.0};
    double finish_s{-1.0};
    bool started{false};
    bool done{false};
    std::vector<std::uint32_t> subflows;
    std::vector<Path> current_paths;  // for warm-restart comparison
  };

  enum class EventType : std::uint8_t {
    kArrival,     // packet reaches the node at the end of a pipe
    kPipeFree,    // pipe finished serializing; try the queue
    kTimer,       // RTO check for (flow, subflow)
    kFlowStart,
  };

  // What an event *is*; when it fires is the queue's business. Events
  // dispatch in the total order (time, schedule sequence): equal-timestamp
  // events fire in scheduling order.
  struct EventPayload {
    EventType type{EventType::kArrival};
    std::uint32_t a{0};  // pipe / flow
    std::uint32_t b{0};  // subflow
    Packet packet;
  };

  using Queue = sim::EventQueue<EventPayload>;
  // The event queue's four lanes, one per (packet kind, event kind) of a
  // transmission that starts at now_: each is pushed at now_ plus a
  // per-pipe constant, so on a fabric of one pipe rate every lane receives
  // its pushes in time order and the binary heap sees only timers, flow
  // starts and blackout-delayed sends. The lane never changes the pop
  // order (sim/event_queue.h).
  [[nodiscard]] static std::size_t lane_of(bool is_ack, EventType type) {
    static_assert(Queue::kLanes == 4);
    return (is_ack ? 2u : 0u) + (type == EventType::kArrival ? 1u : 0u);
  }

  // `packet` must not alias a payload inside the event queue's arena (the
  // push may grow it); run_until pops events by value, so handlers only
  // ever hold locals.
  void schedule(double t, EventType type, std::uint32_t a, std::uint32_t b,
                const Packet& packet, std::size_t lane);
  void schedule(double t, EventType type, std::uint32_t a, std::uint32_t b) {
    schedule(t, type, a, b, Packet{}, Queue::kNoLane);
  }
  // Forced inline: the event loop calls this half a billion times per
  // long run, and the seed engine had the switch inlined in run_until.
  [[gnu::always_inline]] inline void dispatch(const EventPayload& event);
  // `packet` must not alias storage inside the target pipe's ring (the
  // push may grow it); every caller passes a stack-local copy.
  void enqueue_packet(std::uint32_t pipe, const Packet& packet);
  void pipe_try_send(std::uint32_t pipe);
  void handle_arrival(const EventPayload& event);
  void on_data_at_receiver(const Packet& packet);
  void on_ack_at_sender(const Packet& packet);
  void maybe_send(std::uint32_t flow_index);
  void subflow_send_packet(std::uint32_t flow_index, std::uint32_t sf_index,
                           std::uint32_t seq);
  void arm_timer(std::uint32_t flow_index, std::uint32_t sf_index);
  void handle_timer(const EventPayload& event);
  void increase_cwnd(SimFlow& flow, Subflow& subflow);
  [[nodiscard]] std::uint32_t pipe_between(NodeId from, NodeId to) const;
  [[nodiscard]] std::vector<std::uint32_t> pipes_for(const Path& path) const;
  void start_flow(std::uint32_t flow_index);
  void attach_subflows(std::uint32_t flow_index, std::vector<Path> paths);

  // Diff-updates the pipe table for a new topology; returns via the
  // blackout parameters which pipes stall.
  void update_pipes(const Graph& graph, double blackout_s,
                    ConversionScope scope);
  void set_rate(Pipe& pipe, double rate_bps) const;

  void count_drop(std::uint64_t n = 1) {
    drops_ += n;
    obs::add(c_drops_, n);
  }

  PacketSimOptions options_;
  double now_{0.0};
  std::uint64_t drops_{0};
  std::uint64_t events_done_{0};
  std::uint64_t heap_max_{0};
  bool network_set_{false};

  // Cached observability handles; null when detached (the default).
  obs::EventTracer* tracer_{nullptr};
  obs::Counter* c_drops_{nullptr};
  obs::Counter* c_rto_{nullptr};
  obs::Counter* c_fast_rtx_{nullptr};
  obs::Counter* c_flows_started_{nullptr};
  obs::Counter* c_flows_done_{nullptr};
  obs::Counter* c_conversions_{nullptr};
  obs::Counter* c_events_{nullptr};
  obs::Gauge* g_heap_max_{nullptr};
  obs::Gauge* g_arena_{nullptr};
  obs::Histogram* h_fct_{nullptr};
  obs::Histogram* h_queue_depth_{nullptr};
  obs::Histogram* h_cwnd_{nullptr};

  // FIFO lanes and a binary heap over the recycled event arena.
  Queue queue_;
  std::vector<Pipe> pipes_;
  // Directed node-pair -> pipe index for the current topology.
  std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>> pipe_map_;
  std::vector<SimFlow> flows_;
  std::vector<Subflow> subflows_;
};

}  // namespace flattree
