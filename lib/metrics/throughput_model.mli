(** Analytic saturation-throughput estimate for uniform all-to-all
    traffic.

    Under a uniform per-pair injection rate r, channel [c] carries
    r * load(c) where load is the edge forwarding index. Saturation is
    reached when the most loaded channel hits capacity, so
    r_max = capacity / gamma_max and the aggregate network throughput is
    r_max * pairs. This closed form tracks the relative ordering the
    paper's flit-level simulations produce (who wins and by roughly what
    factor) and scales to the full Table 1 networks; the flit-level
    simulator in [nue_sim] provides the detailed counterpart at reduced
    scale. Capacity defaults to 4 GB/s (QDR InfiniBand). *)

type t = {
  aggregate_gbs : float;      (** saturation all-to-all throughput, GB/s *)
  per_terminal_gbs : float;
  gamma_max : float;          (** most loaded channel, in paths *)
  bottleneck_channel : int;
}

val all_to_all :
  ?sources:int array ->
  ?link_capacity_gbs:float ->
  Nue_routing.Table.t ->
  t

val of_loads : Nue_routing.Table.t -> int array -> t
(** {!all_to_all} at the default capacity, of loads already counted from
    the terminals (as {!Nue_routing.Verify.measure} counts them). *)
