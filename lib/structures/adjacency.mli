(** Growable CSR-style multigraph adjacency over dense int vertices.

    Each vertex owns a sorted segment of a single flat edge pool
    (successor ids plus aligned multiplicities): membership is a binary
    search, iteration is cache-linear in ascending successor order, and
    the whole structure costs two ints per distinct edge plus three per
    vertex — no per-binding boxing. Backs {!Nue_cdg.Digraph}. *)

type t

val create : int -> t
(** [create n]: vertices [0 .. n-1], no edges. *)

val num_vertices : t -> int

val distinct_edges : t -> int

val degree : t -> int -> int
(** Number of distinct successors of a vertex. *)

val multiplicity : t -> int -> int -> int
(** [multiplicity t u v] is 0 when the edge is absent. *)

val mem : t -> int -> int -> bool

val add : t -> int -> int -> bool
(** Increment the multiplicity of [u -> v]; [true] iff the edge is new
    (multiplicity went 0 to 1). Amortized O(degree) worst case (segment
    shift), O(log degree) when the edge already exists. *)

val remove : t -> int -> int -> bool
(** Decrement the multiplicity; [true] iff the edge disappeared.
    @raise Invalid_argument if the edge is absent. *)

val succ_ix : t -> int -> int -> int
(** [succ_ix t u i] is the [i]-th distinct successor of [u] (ascending),
    [0 <= i < degree t u]. Unchecked. *)

val iter : t -> int -> (int -> unit) -> unit
(** Iterate the distinct successors of a vertex in ascending order. *)

val fold : t -> int -> ('a -> int -> 'a) -> 'a -> 'a
