(** The CDG-constrained Dijkstra of Nue (Algorithm 1) plus the impasse
    optimizations of Sections 4.6.2/4.6.3.

    One call computes the deadlock-free next-channel tree for a single
    destination inside a prepared complete CDG (escape paths already
    marked). The search runs in traffic orientation: it grows from the
    destination over incoming channels, traversing complete-CDG edges in
    reverse — isomorphic to the paper's formulation because the complete
    CDG is reverse-symmetric, and it emits forwarding tables directly.

    One refinement over the paper's pseudocode: a node's in-channels are
    expanded only against the node's final [usedChannel] (never against a
    stale, superseded channel), which guarantees that every dependency
    the forwarding tables induce was actually cycle-checked. Channels
    that lose the race are remembered as backtracking alternatives, as
    Section 4.6.2 prescribes. *)

type stats = {
  mutable fallbacks : int;      (** destinations routed via escape paths *)
  mutable backtracks : int;     (** islands solved by local backtracking *)
  mutable shortcuts : int;      (** routed nodes improved through islands *)
  mutable impasse_dests : int;  (** destinations that hit any impasse *)
}

val fresh_stats : unit -> stats

type scratch
(** Working memory for {!route_destination} (node-sized arrays and the
    heap), reusable across calls on one domain at a time. *)

val create_scratch : Nue_netgraph.Network.t -> scratch

val route_destination :
  Nue_cdg.Complete_cdg.t ->
  escape:Escape.t ->
  weights:float array ->
  dest:int ->
  ?use_backtracking:bool ->
  ?use_shortcuts:bool ->
  ?scratch:scratch ->
  stats:stats ->
  unit ->
  int array
(** Next channel per node toward [dest] (-1 at [dest]); always total —
    either found by the constrained search, completed by local
    backtracking, or (whole destination) falling back to the escape
    paths. Both optimizations default to enabled. The returned row is
    fresh; the search's other arrays and its heap come from [scratch]
    when given (else they are allocated per call).
    @raise Invalid_argument if [scratch] was made for a network with a
    different node count. *)
