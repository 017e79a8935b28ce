(** Cycle-based flit-level network simulator.

    Models an InfiniBand-like lossless fabric: input-buffered switches
    with one FIFO per (channel, virtual lane), credit-based flow
    control, wormhole switching with per-VL output ownership and
    round-robin link arbitration, and per-hop virtual-lane selection
    taken from the routing table (SL-to-VL style). A watchdog detects
    deadlock: if no flit moves for [watchdog] cycles while packets are
    outstanding, the run aborts and reports it — routing functions with
    cyclic dependency graphs visibly hang here, Nue's never do.

    A cycle arbitrates only the channels woken since their last failed
    arbitration (by a new head flit requesting them, a returned credit,
    a refilled token or a table swap), plus a scan of one bit per
    channel, and allocates nothing outside telemetry samples: buffers,
    wires and injection queues are flat int rings (DESIGN.md, "Simulator
    state and cost model").

    The optional telemetry sink ({!run_with_telemetry}) samples
    per-link and per-VC buffer occupancy every N cycles into a ring
    buffer, accumulates per-link utilization, routes packet latencies
    through {!Nue_metrics.Histogram}, and attributes a detected
    deadlock to the circular wait of (channel, VL) units that blocks
    it. When the span tracer ({!Nue_obs.Span}) is enabled, the run is
    bracketed in a [sim.run] span stamped in {e simulation cycles} and
    each telemetry sample also emits Perfetto counter events.

    This is the reduced-scale substitute for the paper's OMNeT++
    toolchain; see DESIGN.md for the substitution rationale. *)

type config = {
  buffer_flits : int;   (** input buffer capacity per (channel, VL) *)
  link_latency : int;   (** cycles a flit spends on a wire *)
  flit_bytes : int;
  mtu_bytes : int;      (** maximum packet payload; messages are split *)
  link_gbs : float;     (** physical link rate, GB/s (QDR = 4.0) *)
  max_cycles : int;
  watchdog : int;       (** idle cycles before declaring deadlock *)
  injection_rate : float;
      (** offered load in (0, 1]: flits each terminal may inject per
          cycle (a per-node token bucket capped at one token). At 1.0
          (the default) the throttle is disabled and the run is
          byte-identical to earlier unthrottled behavior. Rates below
          ~1/watchdog would trip the deadlock watchdog. *)
}

val default_config : config
(** 8-flit buffers, latency 1, 64 B flits, 2 KiB MTU, 4 GB/s links,
    10M-cycle cap, 20k-cycle watchdog, injection rate 1.0. *)

type outcome = {
  delivered_packets : int;
  total_packets : int;
  delivered_bytes : int;
  dropped_packets : int;
      (** packets dropped at injection because the active table no
          longer routed their pair (only possible under mid-run swaps) *)
  cycles : int;
  deadlock : bool;
  aggregate_gbs : float;  (** delivered bytes over the simulated time *)
  avg_packet_latency : float; (** cycles from injection-eligible to tail
                                  delivery, averaged *)
  latency_p50 : float;        (** median packet latency, cycles *)
  latency_p95 : float;        (** 95th-percentile packet latency, cycles *)
  latency_p99 : float;        (** 99th-percentile packet latency, cycles *)
  latency_max : float;        (** slowest packet, cycles (exact) *)
}
(** Percentiles are computed through {!Nue_metrics.Histogram} (bin
    resolution); [latency_max] is tracked exactly. *)

(** {1 Telemetry} *)

type telemetry_config = {
  sample_every : int;   (** cycles between occupancy samples *)
  max_samples : int;    (** ring capacity; older samples are dropped *)
  latency_bins : int;   (** histogram bins for packet latencies *)
}

val default_telemetry : telemetry_config
(** Sample every 64 cycles, keep the last 256 samples, 32 latency bins. *)

type sample = {
  at_cycle : int;
  link_occupancy : int array;  (** buffered flits per channel (all VLs) *)
  vl_occupancy : int array;    (** buffered flits per VL (all channels) *)
}

type telemetry = {
  sample_every : int;
  samples : sample array;        (** chronological; the most recent
                                     [max_samples] if the run was longer *)
  dropped_samples : int;         (** samples overwritten in the ring *)
  vls : int;                     (** VL count the unit arrays are laid
                                     out with: unit = channel * vls + vl *)
  unit_occupancy_sum : int array;
      (** per-(channel, VL) occupancy summed over {e every} sample taken
          (including ones the ring overwrote); length channels * vls *)
  unit_occupancy_peak : int array;
      (** per-(channel, VL) peak sampled occupancy *)
  occupancy_samples : int;       (** samples the accumulators cover *)
  link_transmits : int array;    (** flits moved per channel *)
  link_utilization : float array;(** transmits / cycles, in [0, 1] *)
  peak_link_utilization : float;
  peak_link : int;               (** channel achieving the peak *)
  latency : Nue_metrics.Histogram.t;  (** per-packet latency, cycles *)
  deadlock_wait_cycle : (int * int) list;
      (** on deadlock: the circular wait as (channel, VL) units, each
          waiting for the next (the last waits for the first); [] when
          no deadlock was detected or the stall is not a circular wait *)
}

val run :
  ?config:config ->
  Nue_routing.Table.t ->
  traffic:Traffic.message list ->
  outcome
(** Simulate the traffic to completion (or watchdog/cycle-cap abort).
    @raise Invalid_argument if a message endpoint is not a terminal, a
    destination is not routed by the table, a route's next channel does
    not leave the node the previous one entered, or the table needs more
    VLs than the paths declare. *)

val run_with_telemetry :
  ?config:config ->
  ?telemetry:telemetry_config ->
  Nue_routing.Table.t ->
  traffic:Traffic.message list ->
  outcome * telemetry
(** {!run} with the telemetry sink attached.
    @raise Invalid_argument additionally, before simulating, if
    [sample_every], [max_samples] or [latency_bins] is below 1. *)

(** {1 Live reconfiguration}

    A run may swap routing tables mid-flight: packets injected after a
    swap follow the new table, packets already in flight finish on the
    route they were injected with. That coexistence of old and new
    dependencies is deadlock-free exactly when the union of both
    tables' channel dependency graphs is acyclic per VL —
    [Nue_reconfig.Transition.verify] certifies it; a [staged] swap is
    the conservative fallback for transitions it could not certify:
    injection pauses, the fabric drains, and only then does the new
    table take effect. *)

type swap = {
  at_cycle : int;           (** cycle at which the swap is requested *)
  table : Nue_routing.Table.t;
      (** must be on the same network (node and channel ids) as the
          initial table; may use a different number of VLs *)
  staged : bool;
      (** drain all in-flight packets before activating (safe for any
          transition, at the cost of a full quiesce) *)
}

type swap_record = {
  swap_at : int;            (** requested cycle *)
  activated_at : int;       (** when the table took effect ([= swap_at]
                                unless staged; -1 if the run ended while
                                still draining) *)
  in_flight_packets : int;  (** packets committed to the old table at
                                request time *)
  in_flight_flits : int;    (** their buffered + on-wire flits *)
  drained_at : int;         (** cycle by which every packet in flight at
                                request time was delivered — the end of
                                the disruption window; -1 if the run
                                ended first *)
}

val run_with_swaps :
  ?config:config ->
  ?telemetry:telemetry_config ->
  Nue_routing.Table.t ->
  swaps:swap list ->
  traffic:Traffic.message list ->
  outcome * telemetry option * swap_record list
(** Simulate with mid-run table swaps (applied in [at_cycle] order, one
    at a time — a swap whose cycle arrives while a staged predecessor is
    still draining waits its turn). Packets whose pair the active table
    no longer routes are dropped (counted against [delivered_packets]
    vs [total_packets]) instead of blocking the injection queue. The
    watchdog still aborts on deadlock, so an unverified unsafe
    transition is caught rather than hanging.
    @raise Invalid_argument if a swap table is on a different network,
    or (before simulating) for a telemetry config {!run_with_telemetry}
    rejects. *)
