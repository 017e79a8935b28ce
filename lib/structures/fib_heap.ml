(* Fibonacci heap (Fredman & Tarjan 1987) without decrease-key.

   Nodes form circular doubly-linked sibling lists; roots form the root
   list. [min_root] points at the minimum root. Consolidation after
   extract-min links trees of equal degree. Without decrease-key there
   are no cuts, so nodes need no parent pointer or mark bit. *)

module Obs = Nue_obs.Obs

let c_insert = Obs.counter "heap.inserts"
let c_extract = Obs.counter "heap.extracts"
let c_link = Obs.counter "heap.links"

type 'a node = {
  key : float;
  value : 'a;
  mutable child : 'a node option;
  mutable left : 'a node;   (* circular sibling list *)
  mutable right : 'a node;
  mutable degree : int;
}

type 'a t = {
  mutable min_root : 'a node option;
  mutable count : int;
}

let create () = { min_root = None; count = 0 }

(* Splice node [n] (a singleton or detached node) into the circular list
   to the right of [anchor]. *)
let splice_right anchor n =
  n.left <- anchor;
  n.right <- anchor.right;
  anchor.right.left <- n;
  anchor.right <- n

(* Remove [n] from its sibling list; afterwards its left/right are stale. *)
let unlink n =
  n.left.right <- n.right;
  n.right.left <- n.left

let add_root t n =
  match t.min_root with
  | None ->
    n.left <- n;
    n.right <- n;
    t.min_root <- Some n
  | Some m ->
    splice_right m n;
    if n.key < m.key then t.min_root <- Some n

let insert t ~key v =
  let rec n =
    { key; value = v; child = None; left = n; right = n; degree = 0 }
  in
  add_root t n;
  t.count <- t.count + 1;
  Obs.incr c_insert

(* Make [child] a child of [root]; both must currently be roots and
   [child] must already be unlinked from the root list. *)
let link ~root ~child =
  Obs.incr c_link;
  (match root.child with
   | None ->
     child.left <- child;
     child.right <- child;
     root.child <- Some child
   | Some c -> splice_right c child);
  root.degree <- root.degree + 1

let max_degree count =
  (* floor(log_phi count) + 2 is a safe bound; use log2-based bound. *)
  let rec go acc n = if n = 0 then acc else go (acc + 1) (n lsr 1) in
  2 * go 0 count + 2

let consolidate t =
  match t.min_root with
  | None -> ()
  | Some start ->
    (* Collect the current roots into an array first, because linking
       mutates the root list while we iterate. *)
    let roots = ref [] in
    let cur = ref start in
    let continue = ref true in
    while !continue do
      roots := !cur :: !roots;
      cur := !cur.right;
      if !cur == start then continue := false
    done;
    let slots = Array.make (max_degree t.count) None in
    let place r =
      let r = ref r in
      let d = ref !r.degree in
      while !d < Array.length slots && slots.(!d) <> None do
        (match slots.(!d) with
         | None -> assert false
         | Some other ->
           slots.(!d) <- None;
           let root, child =
             if !r.key <= other.key then !r, other else other, !r
           in
           link ~root ~child;
           r := root;
           d := root.degree)
      done;
      slots.(!d) <- Some !r
    in
    List.iter
      (fun r ->
         (* Detach from whatever list it is in; it becomes a candidate. *)
         unlink r;
         r.left <- r;
         r.right <- r;
         place r)
      !roots;
    t.min_root <- None;
    Array.iter
      (function
        | None -> ()
        | Some r -> add_root t r)
      slots

let extract_min t =
  match t.min_root with
  | None -> None
  | Some m ->
    (* Promote children of the minimum to roots. *)
    (match m.child with
     | None -> ()
     | Some c ->
       let cur = ref c in
       let continue = ref true in
       let children = ref [] in
       while !continue do
         children := !cur :: !children;
         cur := !cur.right;
         if !cur == c then continue := false
       done;
       List.iter
         (fun ch ->
            unlink ch;
            ch.left <- ch;
            ch.right <- ch;
            add_root t ch)
         !children;
       m.child <- None);
    if m.right == m then t.min_root <- None
    else begin
      t.min_root <- Some m.right;
      unlink m
    end;
    t.count <- t.count - 1;
    consolidate t;
    Obs.incr c_extract;
    Some (m.value, m.key)
