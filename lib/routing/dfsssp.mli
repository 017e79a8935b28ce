(** DFSSSP: deadlock-free single-source shortest-path routing
    (Domke, Hoefler, Nagel 2011).

    Phase 1 computes globally balanced shortest paths: one weighted
    Dijkstra per destination, in destination order, each followed by
    positive weight updates on the channels its paths use, so every
    Dijkstra sees the loads of the destinations before it. Phase 2
    removes deadlocks by assigning whole source-destination paths to
    virtual layers ({!Layers.assign}); the required number of layers can
    exceed the hardware VC limit, in which case DFSSSP is inapplicable
    (the failure mode Figs. 1, 10, 11 exhibit and Nue was built to
    avoid). *)

val route_structured :
  ?dests:int array ->
  ?sources:int array ->
  ?max_vls:int ->
  Nue_netgraph.Network.t ->
  (Table.t, Engine_error.t) result
(** Canonical entry point (what the {!Engine} registry calls).
    [max_vls] defaults to 8 (InfiniBand data VLs); failures are
    [Engine_error.Vc_budget_exceeded] carrying the exact layer count the
    greedy assignment needed. *)

val paths_only :
  ?dests:int array ->
  ?sources:int array ->
  Nue_netgraph.Network.t ->
  Table.t
(** Phase 1 alone (the SSSP routing of Hoefler et al.): balanced
    shortest paths on one VL, no deadlock removal. *)

val required_vcs :
  ?dests:int array ->
  ?sources:int array ->
  Nue_netgraph.Network.t ->
  int
(** Layers the greedy assignment needs for this network's DFSSSP paths. *)
