(** Torus-2QoS-like topology-aware routing for (possibly faulty) 3D tori.

    Dimension-order routing (x, then y, then z) with per-ring datelines:
    crossing a ring's wrap-around link moves the packet to the second
    virtual lane of that dimension, which breaks the ring cycle in the
    dependency graph. Failures are handled like OpenSM's Torus-2QoS
    within its advertised envelope: a single failure per torus ring is
    routed around the other way; paths whose canonical dimension order is
    blocked (e.g. the intermediate DOR turn switch died) fall back to the
    first feasible dimension order and are isolated on two extra virtual
    lanes. Two failures in one ring (or an unroutable pair) make the
    algorithm inapplicable — the failure mode motivating Nue (Fig. 1). *)

val route_structured :
  torus:Nue_netgraph.Topology.torus ->
  remap:Nue_netgraph.Fault.remap ->
  ?dests:int array ->
  ?sources:int array ->
  unit ->
  (Table.t, Engine_error.t) result
(** Canonical entry point (what the {!Engine} registry calls). [remap]
    carries the faulty network derived from [torus.net] (use
    [Fault.identity torus.net] for the intact torus). Destinations and
    sources default to the faulty network's terminals. Fault patterns
    beyond the Torus-2QoS envelope yield [Engine_error.Unroutable]. *)
