(** Fault injection: derive a degraded network from an intact one.

    A fault plan (dead base links plus dead switches) is decided on the
    base network and built once. Removing a switch also removes its
    attached terminals (their only link is gone). Node ids are
    re-densified; the [to_old]/[of_old] maps relate the two networks so
    topology metadata (e.g. torus coordinates) can be carried across.
    Surviving links keep the base order and orientation. *)

type remap = private {
  net : Network.t;
  to_old : int array;  (** new node id -> old node id *)
  of_old : int array;  (** old node id -> new node id, or -1 if removed *)
  dead_links : Nue_structures.Bitset.t;
      (** one bit per base duplex link: absent from [net], cut or lost
          with a removed node. Do not mutate. *)
}

val identity : Network.t -> remap

val remove_switches : Network.t -> int list -> remap
(** Remove the given switches, their terminals and all incident links.
    @raise Invalid_argument ["Fault.remove_switches: node is not a
    switch"] for an id that is not a switch (out of range included), or
    if the result is disconnected. *)

val remove_links : Network.t -> (int * int) list -> remap
(** Remove one duplex link per listed node pair, the pair's
    lowest-numbered live copy (a pair listed twice cuts two copies).
    @raise Invalid_argument ["Fault.remove_links: no such link"] if a
    pair has no live copy (out-of-range ids included), or if the result
    is disconnected. *)

val can_remove_links : Network.t -> (int * int) list -> bool
(** Whether {!remove_links} succeeds, without building the network. *)

val removed : Network.t -> remap -> int list * (int * int) list
(** [removed base remap] is what a fault plan took away, in the base
    network's node ids: the removed switches, and one [(min, max)] pair
    per cut duplex link whose both endpoints survived, ascending by link
    id (links that died with a removed switch are implied by it and not
    listed). Feed the result to {!Serialize.to_dot}'s fault overlay. *)

val base_channels : base:Network.t -> remap -> int array
(** The [base] channel every channel of [remap.net] is.
    @raise Invalid_argument if [remap] is not of [base]. *)

val random_link_failures :
  Nue_structures.Prng.t -> Network.t -> fraction:float -> remap
(** Fail [fraction] of the switch-to-switch duplex links (rounded down,
    at least 1 if fraction > 0), chosen uniformly among removals that
    keep the network connected. Terminal links never fail. Used for the
    1% injected link failures of Fig. 11.
    @raise Invalid_argument if [fraction] is outside \[0, 1\] or NaN. *)

val random_link_repairs :
  Nue_structures.Prng.t -> base:Network.t -> remap -> fraction:float -> remap
(** The inverse of {!random_link_failures}: restore [fraction] of the
    duplex links the [remap] cut from [base] (rounded down, at least 1
    if fraction > 0 and any link was cut), chosen uniformly among the
    cut links whose both endpoints survived. Removed switches stay
    removed; repairing links never disconnects. The result maps [base]
    to the less-degraded network. Sequences are byte-stable: the same
    seed picks the same repairs.
    @raise Invalid_argument if [fraction] is outside \[0, 1\] or NaN. *)
