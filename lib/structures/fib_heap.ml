(* Fibonacci heap (Fredman & Tarjan 1987) without decrease-key, in flat
   arrays.

   A node is an index into the parallel arrays [key], [value], [child],
   [left], [right] and [degree]. Nodes form circular doubly-linked
   sibling lists; roots form the root list, and [min] is the minimum
   root (-1 when empty). Consolidation after extract-min links trees of
   equal degree. Without decrease-key there are no cuts, so nodes need
   no parent pointer or mark bit, and every tree is binomial: a root of
   degree d heads 2^d nodes. *)

module Obs = Nue_obs.Obs

let c_insert = Obs.counter "heap.inserts"
let c_extract = Obs.counter "heap.extracts"
let c_link = Obs.counter "heap.links"

(* Binomial trees bound every degree by log2 of the node count, so 64
   consolidation slots cover any heap that fits in memory. *)
let max_degree = 64

type t = {
  mutable key : float array;
  mutable value : int array;
  mutable child : int array; (* some child, -1 if none *)
  mutable left : int array;
  mutable right : int array;
  mutable degree : int array;
  mutable collected : int array; (* roots or children being visited *)
  slots : int array; (* consolidation: degree -> root, -1 if none *)
  mutable min : int;
  mutable count : int;
  mutable next : int; (* next node index; back to 0 whenever empty *)
}

let create () =
  let n = 16 in
  { key = Array.make n 0.0;
    value = Array.make n 0;
    child = Array.make n (-1);
    left = Array.make n 0;
    right = Array.make n 0;
    degree = Array.make n 0;
    collected = Array.make n 0;
    slots = Array.make max_degree (-1);
    min = -1;
    count = 0;
    next = 0 }

let clear t =
  t.min <- -1;
  t.count <- 0;
  t.next <- 0

let grow t =
  let n = Array.length t.value in
  let widen a fill =
    let b = Array.make (2 * n) fill in
    Array.blit a 0 b 0 n;
    b
  in
  t.key <- widen t.key 0.0;
  t.value <- widen t.value 0;
  t.child <- widen t.child (-1);
  t.left <- widen t.left 0;
  t.right <- widen t.right 0;
  t.degree <- widen t.degree 0;
  t.collected <- Array.make (2 * n) 0

(* Splice node [n] (a singleton or detached node) into the circular list
   to the right of [anchor]. *)
let splice_right t anchor n =
  let r = t.right.(anchor) in
  t.left.(n) <- anchor;
  t.right.(n) <- r;
  t.left.(r) <- n;
  t.right.(anchor) <- n

let add_root t n =
  let m = t.min in
  if m < 0 then begin
    t.left.(n) <- n;
    t.right.(n) <- n;
    t.min <- n
  end
  else begin
    splice_right t m n;
    if t.key.(n) < t.key.(m) then t.min <- n
  end

let insert t ~key v =
  if v < 0 then invalid_arg "Fib_heap.insert: negative payload";
  if t.next = Array.length t.value then grow t;
  let n = t.next in
  t.next <- n + 1;
  t.key.(n) <- key;
  t.value.(n) <- v;
  t.child.(n) <- -1;
  t.degree.(n) <- 0;
  add_root t n;
  t.count <- t.count + 1;
  Obs.incr c_insert

(* Make [child] a child of [root]; both are singleton trees. *)
let link t ~root ~child =
  let c = t.child.(root) in
  if c < 0 then begin
    t.left.(child) <- child;
    t.right.(child) <- child;
    t.child.(root) <- child
  end
  else splice_right t c child;
  t.degree.(root) <- t.degree.(root) + 1

(* Write the circular list through [start] into [collected], in
   traversal order; returns its length. *)
let collect t start =
  let buf = t.collected and right = t.right in
  buf.(0) <- start;
  let n = ref 1 and cur = ref right.(start) in
  while !cur <> start do
    buf.(!n) <- !cur;
    incr n;
    cur := right.(!cur)
  done;
  !n

let consolidate t =
  if t.min >= 0 then begin
    let n = collect t t.min in
    let buf = t.collected and slots = t.slots and key = t.key in
    let top = ref 0 and links = ref 0 in
    (* Last-collected root first; each becomes a singleton candidate
       and links with the stored tree of its degree, the smaller key
       (or, on a tie, the candidate) becoming the root. *)
    for i = n - 1 downto 0 do
      let r = ref buf.(i) in
      t.left.(!r) <- !r;
      t.right.(!r) <- !r;
      let d = ref t.degree.(!r) in
      while slots.(!d) >= 0 do
        let other = slots.(!d) in
        slots.(!d) <- -1;
        if key.(!r) <= key.(other) then link t ~root:!r ~child:other
        else begin
          link t ~root:other ~child:!r;
          r := other
        end;
        incr links;
        d := t.degree.(!r)
      done;
      slots.(!d) <- !r;
      if !d >= !top then top := !d + 1
    done;
    Obs.add c_link !links;
    t.min <- -1;
    for d = 0 to !top - 1 do
      let r = slots.(d) in
      if r >= 0 then begin
        slots.(d) <- -1;
        add_root t r
      end
    done
  end

let extract_min t key =
  let m = t.min in
  if m < 0 then -1
  else begin
    (* Promote the children of the minimum to roots, last-collected
       first; each lands right of [m]. *)
    let c = t.child.(m) in
    if c >= 0 then begin
      let n = collect t c in
      for i = n - 1 downto 0 do
        let ch = t.collected.(i) in
        t.left.(ch) <- ch;
        t.right.(ch) <- ch;
        add_root t ch
      done;
      t.child.(m) <- -1
    end;
    let r = t.right.(m) in
    if r = m then t.min <- -1
    else begin
      let l = t.left.(m) in
      t.right.(l) <- r;
      t.left.(r) <- l;
      t.min <- r
    end;
    t.count <- t.count - 1;
    if t.count = 0 then t.next <- 0 else consolidate t;
    Obs.incr c_extract;
    key.(0) <- t.key.(m);
    t.value.(m)
  end
