(** Online fault churn: incremental rerouting and live reconfiguration.

    This module closes the loop between fault injection
    ({!Nue_netgraph.Fault}), routing ({!Nue_routing.Engine}), transition
    verification ({!Transition}) and the simulator
    ({!Nue_sim.Sim.run_with_swaps}): a {!state} tracks the current fault
    plan on a base network together with the active routing table,
    {!apply} reacts to one {!Event.t} by recomputing routes —
    incrementally when few destinations are affected, fully otherwise —
    and certifying the table transition, and {!simulate_churn} replays a
    whole event stream against live traffic.

    Everything lives in the {e base} network's coordinate system.
    Link-only faults never renumber nodes, so only channel ids differ
    between the base and a degraded network; {!lift} translates a table
    routed on a degraded network back onto the base network's channel
    ids, which makes tables from different fault epochs directly
    comparable (same CDG vertex space) and lets the simulator keep
    running on the base network across swaps.

    Tables with [Per_hop] virtual-lane assignments (Torus-2QoS) are
    opaque closures over degraded channel ids and cannot be lifted;
    engines producing them are not supported here. *)

type state = {
  base : Nue_netgraph.Network.t;
  remap : Nue_netgraph.Fault.remap;
      (** base -> current degraded net; its cut links,
          [snd (Fault.removed base remap)], are the failed links (one
          entry per failed parallel copy) *)
  table : Nue_routing.Table.t;       (** active table, on [base] ids *)
  engine : string;
  vcs : int;
  seed : int;
}

val lift :
  base:Nue_netgraph.Network.t ->
  Nue_netgraph.Fault.remap ->
  Nue_routing.Table.t ->
  Nue_routing.Table.t
(** Re-express a table routed on [remap.net] on the base network:
    identical routes, every channel translated to the base channel the
    remap records for it ({!Nue_netgraph.Fault.base_channels}), so a
    lifted table never names a cut parallel copy.
    @raise Invalid_argument if the remap removed nodes (switch faults
    renumber nodes; only link faults are liftable), if the remap is not
    of [base], if the table is not on [remap.net], or if its VL
    assignment is [Per_hop]. *)

val init :
  ?engine:string ->
  ?vcs:int ->
  ?seed:int ->
  Nue_netgraph.Network.t ->
  (state, string) result
(** Route the intact base network and start a churn state. [engine]
    defaults to ["nue"], [vcs] to 4, [seed] to 1. Errors are the
    engine's ({!Nue_routing.Engine_error.to_string}) or a lift
    rejection. *)

(** {1 One event} *)

type reroute_kind =
  | Incremental  (** only affected destinations recomputed *)
  | Full         (** whole table recomputed *)

type step = {
  event : Event.t;
  affected : int array;
      (** destinations the planner recomputed (ascending) *)
  affected_fraction : float;
      (** [|affected|] over the table's routed destinations *)
  kind : reroute_kind;
      (** [Full] either because the fraction exceeded the threshold or
          because the incremental merge failed validation *)
  verdict : Transition.verdict;
      (** of the old -> new transition; [Unsafe] means the swap must be
          staged (drain before activation) *)
  seconds : float;  (** planning time for this event (CPU seconds) *)
  table : Nue_routing.Table.t;  (** the new active table, on base ids *)
}

val affected_dests : state -> Event.t -> int array
(** Destinations whose routes the event can invalidate or improve,
    ascending. For [Fail (u, v)]: destinations whose current routes
    traverse any channel between [u] and [v] (table scan). For
    [Repair (u, v)]: destinations [d] with
    [|dist(u, d) - dist(v, d)| >= 2] on the pre-event network (the
    restored link can shorten a route to them) plus any destination
    whose current row is incomplete. *)

val apply : ?threshold:float -> state -> Event.t -> (state * step, string) result
(** React to one event: update the failure set, reroute (incrementally
    when [affected_fraction <= threshold], default 0.5), validate the
    resulting table (an incrementally merged table that fails
    connectivity or deadlock-freedom triggers a transparent full
    reroute), and verify the transition. Errors: failing a link would
    disconnect the network, repairing a link that is not failed, or the
    engine refusing the degraded network. The returned state has the new
    table active. *)

val plan :
  ?threshold:float -> state -> Event.t list -> (state * step list, string) result
(** Fold {!apply} over a stream; the first failing event aborts with its
    position prepended to the error. *)

(** {1 Churn simulation} *)

type churn = {
  steps : step list;
  outcome : Nue_sim.Sim.outcome;
  telemetry : Nue_sim.Sim.telemetry option;
  swap_records : Nue_sim.Sim.swap_record list;
      (** one per step, in step order: the disruption window of each
          table swap *)
  plan_seconds : float;  (** total planning time over all steps *)
}

val simulate_churn :
  ?threshold:float ->
  ?config:Nue_sim.Sim.config ->
  ?telemetry:Nue_sim.Sim.telemetry_config ->
  ?interval:int ->
  ?warmup:int ->
  ?message_bytes:int ->
  state ->
  Event.t list ->
  (churn, string) result
(** Plan the whole stream, then run {!Nue_sim.Sim.run_with_swaps} on the
    base network with all-to-all shift traffic ([message_bytes] defaults
    to 2048): step [i]'s table is requested at cycle
    [warmup + i * interval] (defaults 1000 and 2000), staged iff its
    transition verdict is [Unsafe]. The all-to-all pattern is repeated
    for enough rounds (calibrated with one silent no-swap run) that
    traffic outlasts the whole swap schedule — every swap activates
    under load. The simulator's watchdog makes an uncaught transition
    deadlock fail loudly rather than hang. *)

(** {1 JSON} *)

val step_to_json : step -> Nue_pipeline.Json.t

val churn_to_json : churn -> Nue_pipeline.Json.t
(** Summary object: event/kind/verdict counts, affected-fraction
    statistics, planning rate, the simulator outcome, per-swap
    disruption windows, and the per-step list. *)
