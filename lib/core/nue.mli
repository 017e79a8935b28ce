(** Nue routing (Algorithm 2): deadlock-free, oblivious, destination-based
    routing for arbitrary topologies within any fixed number of virtual
    channels k >= 1.

    Per virtual layer: select a destination subset, find the most
    central node of its convex subgraph, build a fresh complete CDG,
    mark the escape paths of a spanning tree rooted there, and run the
    CDG-constrained Dijkstra for every destination of the layer,
    updating channel weights after each destination for global balance.

    Nue never fails: it always produces valid deadlock-free forwarding
    tables, the property Fig. 11 highlights against DFSSSP/LASH (VC
    explosion) and Torus-2QoS (no analytical solution under faults).

    Within a layer, destinations are processed in batched speculative
    rounds sharded over [Nue_parallel.Pool] (see DESIGN.md "Parallel
    execution model"): each destination of a round routes against the
    CDG and weights as the round found them (under a checkpoint that is
    rolled back, or on a per-domain replica), and the round commits in
    order by replaying each journal onto the authoritative CDG,
    re-routing sequentially when a replay no longer holds. Round
    boundaries and commit order depend only on the seeded destination
    order, so tables, counters and provenance trails are byte-identical
    for every job count ([Pool.set_default_jobs]). *)

type options = {
  strategy : Partition.strategy; (** destination partitioning (default Kway) *)
  seed : int;                    (** PRNG seed for partitioning tie-breaks *)
  use_backtracking : bool;       (** Section 4.6.2 island solving (default on) *)
  use_shortcuts : bool;          (** Section 4.6.3 shortcuts (default on) *)
  global_weights : bool;
  (** share balancing weights across layers (default); [false] gives each
      layer its own weights as a literal reading of Algorithm 2 *)
  central_root : bool;
  (** pick the escape root by betweenness centrality of the convex
      subgraph (Section 4.3, default); [false] uses the first
      destination's switch — the ablation baseline *)
}

val default_options : options

type run_stats = {
  fallbacks : int;       (** destinations that fell back to escape paths *)
  backtracks : int;
  shortcuts : int;
  impasse_dests : int;
  initial_deps : int;    (** escape-path dependencies over all layers *)
  cycle_searches : int;
      (** queries the edge states could not answer, decided from the
          order, all layers (Section 4.6.1) *)
  misspeculations : int;
  (** speculative destination routes discarded at commit time and
      re-routed sequentially (see DESIGN.md "Parallel execution
      model") *)
  roots : int array;     (** escape-tree root per layer *)
}

val route :
  ?options:options ->
  ?dests:int array ->
  ?sources:int array ->
  vcs:int ->
  Nue_netgraph.Network.t ->
  Nue_routing.Table.t
(** Route the network with at most [vcs] virtual channels. Destinations
    and sources (used for weight updates) default to the terminals.
    The resulting table assigns each destination's paths to one virtual
    layer ([Per_dest]). *)

val route_with_stats :
  ?options:options ->
  ?dests:int array ->
  ?sources:int array ->
  vcs:int ->
  Nue_netgraph.Network.t ->
  Nue_routing.Table.t * run_stats
