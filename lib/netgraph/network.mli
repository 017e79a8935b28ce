(** Interconnection network as a directed multigraph (paper Definition 1).

    A network holds two kinds of nodes: terminals (exactly one duplex
    link) and switches. Every duplex link is represented by two directed
    channels of opposite direction; [rev] maps one to the other. Parallel
    duplex links between the same pair of nodes are allowed (multigraph,
    used for the link-redundancy configurations of Table 1).

    Values of type [t] are immutable after [Builder.build]; routing
    algorithms keep their own per-channel weight arrays. *)

type kind =
  | Switch
  | Terminal

type t

(** {1 Construction} *)

module Builder : sig
  type network := t

  type t

  val create : ?name:string -> unit -> t

  val add_switch : t -> int
  (** Allocate a switch node; returns its id (dense, starting at 0). *)

  val add_terminal : t -> int
  (** Allocate a terminal node; returns its id. *)

  val add_node : t -> kind -> int

  val connect : t -> int -> int -> unit
  (** [connect b u v] adds one duplex link between distinct nodes [u] and
      [v]. Call twice for a redundant (parallel) link. *)

  val build : t -> network
  (** Freeze the builder.
      @raise Invalid_argument if a terminal does not have exactly one
      duplex link or an endpoint id is out of range. *)
end

val of_links : ?name:string -> kind array -> (int * int) list -> t
(** [of_links kinds links] builds a network in one call: node [i] has kind
    [kinds.(i)] and every pair in [links] becomes a duplex link. *)

(** {1 Nodes} *)

val name : t -> string

val num_nodes : t -> int

val kind : t -> int -> kind

val is_switch : t -> int -> bool

val is_terminal : t -> int -> bool

val switches : t -> int array
(** Ids of all switches, ascending. *)

val terminals : t -> int array
(** Ids of all terminals, ascending. *)

val num_switches : t -> int

val num_terminals : t -> int

(** {1 Channels}

    Channels are dense ids [0 .. num_channels - 1]. Channel [c] goes from
    [src t c] to [dst t c]; [rev t c] is its duplex partner. The [l]-th
    duplex link (in [connect] order) is channels [2l] and [2l + 1]. *)

val num_channels : t -> int

val src : t -> int -> int

val dst : t -> int -> int

val rev : t -> int -> int

val srcs : t -> int array
(** [src] of every channel, indexed by channel id: the network's own
    array, for loops that read many endpoints. Do not mutate. *)

val dsts : t -> int array
(** [dst] of every channel, indexed by channel id. Do not mutate. *)

val out_channels : t -> int -> int array
(** Channels leaving a node, ascending. Do not mutate. *)

val in_channels : t -> int -> int array
(** Channels entering a node. Do not mutate. *)

val out_adjacency : t -> int array array
(** [out_channels] of every node, indexed by node id: the network's own
    arrays, for loops that read many rows. Do not mutate. *)

val in_adjacency : t -> int array array
(** [in_channels] of every node, indexed by node id. Do not mutate. *)

val degree : t -> int -> int
(** Number of outgoing channels (= duplex links) of a node. *)

val max_degree : t -> int
(** Maximum degree over all nodes (the Delta of Proposition 1). *)

val find_channel : t -> int -> int -> int option
(** [find_channel t u v] is some channel from [u] to [v] if one exists. *)

val duplex_pairs : t -> (int * int) array
(** One (u, v) entry per duplex link, indexed by link id, with the lower
    channel id's orientation. Parallel links appear once each. *)

val terminal_attachment : t -> int -> int
(** The switch (or, degenerately, node) a terminal is attached to.
    @raise Invalid_argument on a switch id. *)

val attached_terminals : t -> int -> int array
(** Terminals directly attached to the given node. *)

val pp : Format.formatter -> t -> unit
(** One-line summary: name, node/channel counts. *)
