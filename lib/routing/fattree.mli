(** Fat-tree routing for k-ary n-trees (Zahavi et al. style d-mod-k):
    upward ports are chosen deterministically from the destination's
    leaf address, spreading shift-pattern traffic evenly; downward
    routing is the unique tree descent. Deadlock-free on one virtual
    lane (up*/down* on a tree). Only applicable to networks built by
    {!Nue_netgraph.Topology.kary_ntree}. *)

val route_structured :
  k:int ->
  n:int ->
  ?dests:int array ->
  ?sources:int array ->
  Nue_netgraph.Network.t ->
  (Table.t, Engine_error.t) result
(** Canonical entry point (what the {!Engine} registry calls). Networks
    not built by {!Nue_netgraph.Topology.kary_ntree} yield
    [Engine_error.Topology_mismatch]. *)
