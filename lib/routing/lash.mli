(** LASH: layered shortest-path routing (Skeie, Lysne, Theiss 2002).

    Minimal paths are computed per destination switch; every
    switch-to-switch path is then assigned to the first virtual layer
    whose channel dependency graph stays acyclic when the path's
    dependencies are added. Each layer is a {!Nue_cdg.Complete_cdg},
    so LASH decides acyclicity with Nue's Pearce-Kelly order. Terminal
    pairs inherit the layer of their switch pair. Like DFSSSP, LASH
    fails when the layers needed exceed the available VLs. *)

val admit_path : Nue_cdg.Complete_cdg.t -> (int * int) list -> bool
(** [admit_path g deps] admits the dependencies [(from, to_)] into the
    layer [g] all or none, in list order. When one would close a cycle,
    it releases that edge and every edge this call admitted
    ({!Nue_cdg.Complete_cdg.release}) and returns [false]: the used
    edges are as before, none is blocked, and the order is still
    valid. *)

val route_structured :
  ?dests:int array ->
  ?sources:int array ->
  ?max_vls:int ->
  Nue_netgraph.Network.t ->
  (Table.t, Engine_error.t) result
(** Canonical entry point (what the {!Engine} registry calls).
    [max_vls] defaults to 8; failures are
    [Engine_error.Vc_budget_exceeded] with the exact requirement. *)

val required_vcs :
  ?dests:int array -> ?sources:int array -> Nue_netgraph.Network.t -> int
