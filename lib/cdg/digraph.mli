(** Mutable directed multigraph over integer vertices with cycle search.

    Backs the induced channel-dependency graphs: vertices are channels
    (or (channel, virtual-lane) pairs) and edges are dependencies with a
    multiplicity counting how many paths induce them. *)

type t

val create : int -> t
(** [create n] is an edgeless digraph on vertices [0 .. n-1]. *)

val num_vertices : t -> int

val add_edge : t -> int -> int -> unit
(** Increment the multiplicity of the edge. *)

val remove_edge : t -> int -> int -> unit
(** Decrement the multiplicity; the edge disappears at zero.
    @raise Invalid_argument if the edge is absent. *)

val multiplicity : t -> int -> int -> int

val mem_edge : t -> int -> int -> bool

val num_edges : t -> int
(** Number of distinct edges (ignoring multiplicity). *)

val iter_succ : t -> int -> (int -> unit) -> unit
(** Iterate current successors of a vertex. *)

val find_cycle : t -> int list option
(** Some cycle as a vertex list [v1; v2; ...; vk] (with the edge
    vk -> v1 closing it), or [None] if the graph is acyclic. *)

val is_acyclic : t -> bool
