(** Shared helpers for load-balanced path computation.

    DFSSSP, MinHop and Nue all balance paths the same way: after routing
    one destination, the weight of every channel is increased by the
    number of source paths that cross it, steering later destinations
    away from loaded channels (Hoefler et al., Domke et al.). *)

val update_weights :
  ?scale:float ->
  ?walk:Verify.walk ->
  Nue_netgraph.Network.t ->
  weights:float array ->
  nexts:int array ->
  dest:int ->
  sources:int array ->
  unit
(** Add [scale] (default 1) times the number of [sources] whose path
    to [dest] crosses a channel onto its weight: {!Verify.iter_loads},
    so only sources that reach count. O(nodes). [walk] is the walk's
    scratch, made for [net] (else one is allocated per call). *)

val tie_break_scale : sources:int array -> dests:int array -> float
(** A scale small enough that accumulated loads act as tie-breakers
    between equal-hop paths instead of justifying detours: total load
    over a whole run cannot sum to one hop. OpenSM's SSSP/DFSSSP
    behave this way in practice (the paper reports max path length 6
    for DFSSSP vs 5-6 minimal). *)
