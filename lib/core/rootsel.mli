(** Root selection for the escape spanning tree (Section 4.3).

    The root should be the node most central to the layer's destination
    subset so the escape paths impose as few initial channel
    dependencies as possible: the maximizer, over the convex subgraph of
    the destination set, of Brandes' betweenness centrality counting
    only destination pairs ({!Nue_netgraph.Brandes.most_central}). *)

val choose : Nue_netgraph.Network.t -> dests:int array -> int
(** Central root for the given destination subset. When the subset spans
    the whole network the convex subgraph is the network itself and this
    degenerates to plain betweenness centrality, as in the paper. *)
