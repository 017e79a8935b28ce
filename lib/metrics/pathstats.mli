(** Path-length statistics for a routing table (Section 5.1 reports the
    maximum and average path lengths of Nue against DFSSSP/LASH). *)

type t = {
  max_hops : int;
  avg_hops : float;
  pairs : int;          (** (source, destination) pairs measured *)
  unreachable : int;
}

val of_stats : Nue_routing.Verify.stats -> t
(** Hop counts over the pairs that reach, as {!Nue_routing.Verify.stats}
    counts them (O(nodes) per destination; sources default to the
    terminals, and the destination itself is skipped). *)
