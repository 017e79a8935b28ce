(** Edge forwarding index (Heydemann et al.): per inter-switch channel,
    the number of source-destination paths crossing it. Section 5.1 uses
    its min/max/avg/standard deviation to compare routing balance
    (Fig. 9): a high minimum and low maximum indicate good balance. *)

type summary = {
  min : float;
  max : float;
  avg : float;
  sd : float;
}

val per_channel :
  ?sources:int array -> Nue_routing.Table.t -> int array
(** Paths crossing each channel (indexed by channel id), counting the
    (source, destination) pairs of the table that reach: the loads of
    {!Nue_routing.Verify.stats}, O(nodes) per destination. Terminal
    channels are included in the array but excluded from {!of_loads}. *)

val of_loads : Nue_netgraph.Network.t -> int array -> summary
(** Statistics of per-channel loads over inter-switch channels only, as
    in the paper. *)

val aggregate : summary list -> summary
(** Arithmetic mean of each component over several topologies (the
    Gamma metrics of Fig. 9). *)
