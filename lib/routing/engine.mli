(** First-class routing engines and their registry.

    Mirrors how an OpenSM-style fabric controller selects among pluggable
    deadlock-free routing engines: every algorithm is packed behind one
    module type with a uniform [route : spec -> (Table.t, Engine_error.t)
    result] entry point plus capability flags, so drivers can run "every
    engine over every topology" without per-algorithm wiring.

    All engines implemented inside this library (minhop, sssp, updown,
    dfsssp, lash, torus2qos, fattree, static-cdg) register themselves
    when this module is linked. Nue itself lives one layer up (it depends
    on this library) and registers through [Nue_core.Nue_engine];
    [Nue_pipeline.Experiment] forces that registration, so any consumer
    of the pipeline sees the complete registry. *)

(** {1 Routing specification} *)

type spec = {
  net : Nue_netgraph.Network.t;
      (** the network to route — already degraded if faults were injected *)
  vcs : int;  (** virtual-channel budget (>= 1) *)
  seed : int; (** PRNG seed for tie-breaks (Nue partitioning, static-cdg) *)
  dests : int array option;   (** default: the network's terminals *)
  sources : int array option; (** default: the network's terminals *)
  torus : Nue_netgraph.Topology.torus option;
      (** intact-torus metadata, required by torus-aware engines *)
  remap : Nue_netgraph.Fault.remap option;
      (** fault remap from [torus.net] to [net]; defaults to identity *)
  tree : (int * int) option;
      (** (k, n) of a {!Nue_netgraph.Topology.kary_ntree} network *)
}

val spec :
  ?vcs:int ->
  ?seed:int ->
  ?dests:int array ->
  ?sources:int array ->
  ?torus:Nue_netgraph.Topology.torus ->
  ?remap:Nue_netgraph.Fault.remap ->
  ?tree:int * int ->
  Nue_netgraph.Network.t ->
  spec
(** [vcs] defaults to 8 (InfiniBand data VLs), [seed] to 1. *)

(** {1 Capabilities} *)

type capabilities = {
  needs_torus_coords : bool;
      (** requires [spec.torus] (Torus-2QoS); a spec without it yields
          [Topology_mismatch] *)
  needs_tree_meta : bool;
      (** requires [spec.tree] (fat-tree routing); same contract *)
  respects_vc_budget : bool;
      (** succeeds within {e any} budget [vcs >= 1] (Nue's headline
          property); engines without it may return [Vc_budget_exceeded] *)
  deadlock_free : bool;
      (** an [Ok] table is guaranteed deadlock-free (minhop and plain
          sssp do not promise this) *)
  may_disconnect : bool;
      (** an [Ok] table may leave pairs unreachable (static-cdg's
          impasse problem, Section 3) *)
}

(** {1 The engine interface} *)

module type ENGINE = sig
  val name : string
  val capabilities : capabilities

  val route : spec -> (Table.t, Engine_error.t) result
  (** Must return structured errors, never raise. The registry
      additionally wraps every registered engine so that stray
      exceptions surface as [Engine_error.Internal]. *)
end

(** {1 Registry} *)

val register : (module ENGINE) -> unit
(** Register (or replace, by name) an engine. The stored module is
    wrapped: [vcs < 1] is rejected as [Invalid_spec] and exceptions are
    trapped into [Internal] before any caller sees them. *)

val find : string -> (module ENGINE) option

val all : unit -> (module ENGINE) list
(** Every registered engine, in registration order (deterministic). *)

val names : unit -> string list

val route : string -> spec -> (Table.t, Engine_error.t) result
(** [route name spec] dispatches by name; unknown names yield
    [Engine_error.Unknown_engine]. *)
