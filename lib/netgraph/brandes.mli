(** Brandes' betweenness-centrality algorithm (unweighted), counting only
    shortest paths between members, and the members' convex subgraph
    (paper Definition 8).

    Used by Nue's root selection (Section 4.3): the root of the escape
    spanning tree is the node of the convex subgraph with the highest
    betweenness centrality with respect to the destination subset. One
    pass (BFS plus reverse sweep) per BFS source, O(S·(N + C) + M·N) for
    S sources and M members: a terminal member's source is its
    attachment node, shared by members consecutive in ascending id. *)

val centrality : ?members:int array -> Network.t -> float array * bool array
(** [centrality ?members net] is [(cb, hull)]: C_B per node id, counting
    only shortest paths with both endpoints in [members] (default: every
    node), and the membership mask of the convex subgraph — the members
    plus every node on a shortest path between two of them.

    Parallel channels count as distinct paths, matching the paper's
    channel-sequence definition of a path. On the convex subgraph, [cb]
    is bit-identical to Brandes' algorithm run on the induced subgraph,
    one BFS per member in ascending id; off it, [cb] is 0. *)

val most_central : ?members:int array -> Network.t -> int
(** Node of the convex subgraph maximizing [centrality]; ties broken
    toward the smaller id.
    @raise Invalid_argument on an empty member set. *)
