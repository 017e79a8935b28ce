(** Assignment of paths to virtual layers for deadlock removal.

    This is the decoupled "break cycles afterwards" strategy of DFSSSP
    (and, in per-path form, LASH): all paths start in layer 0; while the
    layer's channel dependency graph contains a cycle, the cycle edge
    induced by the fewest paths is selected and those paths move to the
    next layer. The minimum number of layers this greedy procedure needs
    is what Fig. 1b reports as "required VCs". *)

type result = {
  vl : int array array; (** [vl.(dest position).(source)] *)
  layers_used : int;
}

val path_edges :
  Nue_netgraph.Network.t -> nexts:int array -> dest:int -> src:int ->
  (int * int) list
(** Consecutive channel pairs of [src]'s path in the tree [nexts]
    toward [dest], last pair first (LASH reads switch-level paths). The
    path stops at a dead end, including a hop whose channel does not
    leave its node. *)

val switch_of : Nue_netgraph.Network.t -> int -> int
(** A switch itself, or the switch a terminal attaches to. *)

val assign :
  Nue_netgraph.Network.t ->
  dests:int array ->
  next_channel:int array array ->
  sources:int array ->
  result
(** [layers_used] is the requirement Fig. 1b reports; an engine with a
    smaller VC budget is inapplicable. The assignment is deterministic
    and adds layers one at a time, so a capped run would be a prefix of
    this one and fail exactly when [layers_used] exceeds the cap. *)
