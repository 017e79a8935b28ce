(** Routing tables: the common result type of every routing algorithm.

    A table holds, for every routed destination, the unique next channel
    at every node (destination-based routing, Definition 3) plus a
    virtual-lane assignment describing which VL a packet uses on each
    hop. InfiniBand realizes the VL assignment through SLs and per-port
    SL-to-VL maps, which permits lane changes along a path; the
    [Per_hop] constructor models that generality (needed by
    Torus-2QoS's dateline scheme). *)

type vl_assignment =
  | All_zero
    (** Single virtual lane. *)
  | Per_dest of int array
    (** [vl.(dest position)] — Nue's layer-per-destination scheme. *)
  | Per_pair of int array array
    (** [vl.(dest position).(source node)] — DFSSSP/LASH assign whole
        source-destination paths to layers. *)
  | Per_hop of (src:int -> dest:int -> hop:int -> channel:int -> int)
    (** Fully general: VL of the [hop]-th channel of the path. *)

type t = private {
  net : Nue_netgraph.Network.t;
  algorithm : string;
  dests : int array;              (** routed destinations, ascending *)
  dest_pos : int array;           (** node -> index into [dests], or -1 *)
  next_channel : int array array; (** [next_channel.(pos).(node)]: out
                                      channel toward [dests.(pos)]; -1 at
                                      the destination itself (and for
                                      unrouted nodes) *)
  vl : vl_assignment;
  num_vls : int;                  (** number of VLs the assignment uses *)
  info : (string * float) list;   (** algorithm counters (fallbacks, ...) *)
}

val make :
  net:Nue_netgraph.Network.t ->
  algorithm:string ->
  dests:int array ->
  next_channel:int array array ->
  vl:vl_assignment ->
  num_vls:int ->
  ?info:(string * float) list ->
  unit ->
  t

val dest_position : t -> int -> int
(** Index of a destination in [dests]; -1 if not routed. *)

val next : t -> node:int -> dest:int -> int
(** Next channel at [node] toward [dest]; -1 if none.
    @raise Invalid_argument if [dest] is not a routed destination. *)

val path : t -> src:int -> dest:int -> int list option
(** Channel sequence from [src] to [dest]; [None] if the table loops or
    dead-ends before reaching [dest]. A hop whose channel does not
    leave its node is a dead end, as in {!Verify}. *)

val path_nodes : t -> src:int -> dest:int -> int list option
(** Node sequence from [src] to [dest] inclusive ([src] first); [None]
    exactly when {!path} is. *)

val vl_of : t -> src:int -> dest:int -> hop:int -> channel:int -> int
(** Virtual lane of the [hop]-th channel of the pair's path (the lookup
    {!path_with_vls} performs per hop, exposed for per-hop diagnosis). *)

val path_with_vls : t -> src:int -> dest:int -> (int * int) list option
(** Like [path] but each hop is paired with its virtual lane. *)

val info_value : t -> string -> float option
