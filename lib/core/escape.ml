module Network = Nue_netgraph.Network
module Graph_algo = Nue_netgraph.Graph_algo
module Complete_cdg = Nue_cdg.Complete_cdg

type t = {
  cdg : Complete_cdg.t;
  tree : Graph_algo.tree;
  mutable initial_deps : int;
}

(* Only a search that falls back needs the array, so it is built on
   demand; the tree is read-only, so pool workers may call this. *)
let next_toward t ~dest =
  Graph_algo.tree_next_channel (Complete_cdg.network t.cdg) t.tree ~dest

exception Refused

(* Only a hop's first expansion changes the CDG, so one walk of the
   tree makes the calls that expanding every node for every destination
   would, in the same order (docs/ALGORITHMS.md §4): the hops toward the
   first destination in node-id order, then each later destination's
   path down from the part of the tree already spanned, by source node. *)
let prepare_gen ~strict cdg ~root ~dests =
  let net = Complete_cdg.network cdg in
  let tree = Graph_algo.spanning_tree net ~root in
  let t = { cdg; tree; initial_deps = 0 } in
  let expand c_out =
    (* Every tree channel into the node [c_out] leaves can carry escape
       traffic along it (any source may sit behind it), except the
       reverse of [c_out] (a U-turn is not a dependency). *)
    Array.iter
      (fun c_in ->
         if
           tree.Graph_algo.tree_channel.(c_in)
           && Complete_cdg.is_edge cdg ~from:c_in ~to_:c_out
           && Complete_cdg.edge_omega cdg ~from:c_in ~to_:c_out = 0
         then begin
           if Complete_cdg.try_use_edge cdg ~from:c_in ~to_:c_out then
             t.initial_deps <- t.initial_deps + 1
           else if strict then
             (* Tree-induced dependencies can never close a cycle on a
                pristine CDG. *)
             assert false
           else raise Refused
         end)
      (Network.in_channels net (Network.src net c_out))
  in
  let by_source a b = Int.compare (Network.src net a) (Network.src net b) in
  match
    if Array.length dests > 0 then begin
      (* x's hop toward [dests.(0)], cleared once x is spanned. *)
      let up = Graph_algo.tree_next_channel net tree ~dest:dests.(0) in
      Array.iter (fun c -> if c >= 0 then expand c) up;
      let path = Array.make (Network.num_nodes net) 0 in
      for i = 1 to Array.length dests - 1 do
        let len = ref 0 and x = ref dests.(i) in
        while up.(!x) >= 0 do
          let c = up.(!x) in
          up.(!x) <- -1;
          path.(!len) <- Network.rev net c;
          incr len;
          x := Network.dst net c
        done;
        let hops = Array.sub path 0 !len in
        Array.sort by_source hops;
        Array.iter expand hops
      done
    end
  with
  | () ->
    if Provenance.enabled () then
      Provenance.record_escape_prepared
        ~channels:tree.Graph_algo.tree_channel
        ~initial_deps:t.initial_deps;
    Some t
  | exception Refused -> None

let prepare cdg ~root ~dests =
  match prepare_gen ~strict:true cdg ~root ~dests with
  | Some t -> t
  | None -> assert false

let prepare_into cdg ~root ~dests = prepare_gen ~strict:false cdg ~root ~dests

let tree t = t.tree

let initial_dependencies t = t.initial_deps
