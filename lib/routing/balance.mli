(** Shared helpers for load-balanced path computation.

    DFSSSP, MinHop and Nue all balance paths the same way: after routing
    one destination, the weight of every channel is increased by the
    number of source paths that cross it, steering later destinations
    away from loaded channels (Hoefler et al., Domke et al.). *)

val channel_loads :
  Nue_netgraph.Network.t ->
  nexts:int array ->
  dest:int ->
  sources:int array ->
  int array
(** [channel_loads net ~nexts ~dest ~sources] walks every source's path
    along the next-channel tree and counts, per channel, how many paths
    cross it. Unreachable sources contribute nothing. *)

val update_weights :
  ?scale:float ->
  ?loads:int array ->
  Nue_netgraph.Network.t ->
  weights:float array ->
  nexts:int array ->
  dest:int ->
  sources:int array ->
  unit
(** Add [scale] (default 1) times the per-channel loads for this
    destination onto [weights]. [loads], when given, is the count
    scratch: one zero per channel on entry, left all zeros on return
    (else a fresh array is allocated per call). *)

val tie_break_scale : sources:int array -> dests:int array -> float
(** A scale small enough that accumulated loads act as tie-breakers
    between equal-hop paths instead of justifying detours: total load
    over a whole run cannot sum to one hop. OpenSM's SSSP/DFSSSP
    behave this way in practice (the paper reports max path length 6
    for DFSSSP vs 5-6 minimal). *)
