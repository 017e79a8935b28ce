module Network = Nue_netgraph.Network
module Graph_algo = Nue_netgraph.Graph_algo
module Complete_cdg = Nue_cdg.Complete_cdg

type t = {
  cdg : Complete_cdg.t;
  tree : Graph_algo.tree;
  mutable initial_deps : int;
  memo : (int, int array) Hashtbl.t;
  (* [next_toward] is called from pool workers when a speculative
     search falls back to the escape path, so the memo is shared
     mutable state across domains. The lock covers lookup and insert;
     a duplicated computation (two domains missing on the same dest
     before either inserts) would only waste work, but the hashtable
     itself must never be resized concurrently. *)
  memo_lock : Mutex.t;
}

let next_toward t ~dest =
  Mutex.lock t.memo_lock;
  match Hashtbl.find_opt t.memo dest with
  | Some a ->
    Mutex.unlock t.memo_lock;
    a
  | None ->
    (* Compute inside the lock: the tree walk is cheap (O(nodes)) and
       this keeps each dest's array computed exactly once. *)
    (match
       Graph_algo.tree_next_channel (Complete_cdg.network t.cdg) t.tree ~dest
     with
     | a ->
       Hashtbl.replace t.memo dest a;
       Mutex.unlock t.memo_lock;
       a
     | exception e ->
       Mutex.unlock t.memo_lock;
       raise e)

exception Refused

let prepare_gen ~strict cdg ~root ~dests =
  let net = Complete_cdg.network cdg in
  let tree = Graph_algo.spanning_tree net ~root in
  let t =
    { cdg; tree; initial_deps = 0; memo = Hashtbl.create 64;
      memo_lock = Mutex.create () }
  in
  match
    Array.iter
      (fun dest ->
         let next = next_toward t ~dest in
         for node = 0 to Network.num_nodes net - 1 do
           if node <> dest then begin
             let c_out = next.(node) in
             if c_out >= 0 then begin
               ignore (Complete_cdg.use_channel cdg c_out);
               (* Every tree channel into [node] can carry escape traffic
                  for [dest] (any source may sit behind it), except the
                  reverse of [c_out] (a U-turn is not a dependency). *)
               Array.iter
                 (fun c_in ->
                    if
                      t.tree.Graph_algo.tree_channel.(c_in)
                      && Complete_cdg.is_edge cdg ~from:c_in ~to_:c_out
                      && Complete_cdg.edge_omega cdg ~from:c_in ~to_:c_out = 0
                    then begin
                      let ok =
                        Complete_cdg.try_use_edge cdg ~from:c_in ~to_:c_out
                      in
                      if ok then t.initial_deps <- t.initial_deps + 1
                      else if strict then
                        (* Tree-induced dependencies can never close a
                           cycle on a pristine CDG. *)
                        assert false
                      else raise Refused
                    end)
                 (Network.in_channels net node)
             end
           end
         done)
      dests
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
