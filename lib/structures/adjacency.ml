(* Growable CSR-style adjacency: per-vertex segments of a single flat
   edge pool, each segment sorted by successor id with an aligned
   multiplicity array. Lookup is a binary search, insertion shifts
   within the segment, and a segment that outgrows its capacity is
   moved to the end of the pool (the hole is reclaimed by compaction
   once it dominates the pool). Two int entries per distinct edge plus
   three ints per vertex — versus the four-plus words per binding a
   hashtable costs — and iteration is cache-linear and always in
   ascending successor order. *)

type t = {
  n : int;
  mutable heads : int array; (* successor ids, sorted per segment *)
  mutable mults : int array; (* multiplicities, aligned with heads *)
  start : int array;         (* vertex -> segment offset in the pool *)
  len : int array;           (* vertex -> live entries *)
  cap : int array;           (* vertex -> segment capacity *)
  mutable free : int;        (* bump pointer past the last segment *)
  mutable edges : int;       (* distinct edges *)
  mutable waste : int;       (* capacity abandoned by moved segments *)
}

let create n =
  if n < 0 then invalid_arg "Adjacency.create";
  { n;
    heads = [||];
    mults = [||];
    start = Array.make n 0;
    len = Array.make n 0;
    cap = Array.make n 0;
    free = 0;
    edges = 0;
    waste = 0 }

let num_vertices t = t.n

let distinct_edges t = t.edges

let degree t u = t.len.(u)

let check t u =
  if u < 0 || u >= t.n then invalid_arg "Adjacency: vertex out of range"

(* Position of [v] in [u]'s segment, or [-(insertion point) - 1]. *)
let search t u v =
  let s = t.start.(u) in
  let lo = ref 0 and hi = ref t.len.(u) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.heads.(s + mid) < v then lo := mid + 1 else hi := mid
  done;
  if !lo < t.len.(u) && t.heads.(s + !lo) = v then !lo else -(!lo) - 1

let multiplicity t u v =
  check t u;
  let i = search t u v in
  if i >= 0 then t.mults.(t.start.(u) + i) else 0

let mem t u v = multiplicity t u v > 0

let succ_ix t u i = t.heads.(t.start.(u) + i)

let iter t u f =
  let s = t.start.(u) in
  for i = 0 to t.len.(u) - 1 do
    f t.heads.(s + i)
  done

let fold t u f acc =
  let s = t.start.(u) in
  let acc = ref acc in
  for i = 0 to t.len.(u) - 1 do
    acc := f !acc t.heads.(s + i)
  done;
  !acc

(* {1 Pool management} *)

let ensure_pool t need =
  let size = Array.length t.heads in
  if t.free + need > size then begin
    let size' = max (max (2 * size) (t.free + need)) 64 in
    let heads' = Array.make size' 0 and mults' = Array.make size' 0 in
    Array.blit t.heads 0 heads' 0 t.free;
    Array.blit t.mults 0 mults' 0 t.free;
    t.heads <- heads';
    t.mults <- mults'
  end

(* Rewrite every segment contiguously, shrinking capacities to ~1.5x the
   live entries. Triggered when moved-segment holes dominate the pool. *)
let compact t =
  let total = ref 0 in
  let newcap = Array.make t.n 0 in
  for u = 0 to t.n - 1 do
    newcap.(u) <- (if t.len.(u) = 0 then 0 else max 4 (t.len.(u) * 3 / 2));
    total := !total + newcap.(u)
  done;
  let heads' = Array.make (max !total 64) 0 in
  let mults' = Array.make (max !total 64) 0 in
  let off = ref 0 in
  for u = 0 to t.n - 1 do
    Array.blit t.heads t.start.(u) heads' !off t.len.(u);
    Array.blit t.mults t.start.(u) mults' !off t.len.(u);
    t.start.(u) <- !off;
    t.cap.(u) <- newcap.(u);
    off := !off + newcap.(u)
  done;
  t.heads <- heads';
  t.mults <- mults';
  t.free <- !off;
  t.waste <- 0

(* Move [u]'s segment to the end of the pool with doubled capacity. *)
let grow_segment t u =
  let cap' = max 4 (2 * t.cap.(u)) in
  ensure_pool t cap';
  let s = t.start.(u) in
  Array.blit t.heads s t.heads t.free t.len.(u);
  Array.blit t.mults s t.mults t.free t.len.(u);
  t.waste <- t.waste + t.cap.(u);
  t.start.(u) <- t.free;
  t.cap.(u) <- cap';
  t.free <- t.free + cap';
  if t.waste > 256 && 2 * t.waste > t.free then compact t

let add t u v =
  check t u;
  check t v;
  let i = search t u v in
  if i >= 0 then begin
    t.mults.(t.start.(u) + i) <- t.mults.(t.start.(u) + i) + 1;
    false
  end
  else begin
    let ip = -i - 1 in
    if t.len.(u) = t.cap.(u) then grow_segment t u;
    let s = t.start.(u) in
    Array.blit t.heads (s + ip) t.heads (s + ip + 1) (t.len.(u) - ip);
    Array.blit t.mults (s + ip) t.mults (s + ip + 1) (t.len.(u) - ip);
    t.heads.(s + ip) <- v;
    t.mults.(s + ip) <- 1;
    t.len.(u) <- t.len.(u) + 1;
    t.edges <- t.edges + 1;
    true
  end

let remove t u v =
  check t u;
  let i = search t u v in
  if i < 0 then invalid_arg "Adjacency.remove: absent edge";
  let s = t.start.(u) in
  if t.mults.(s + i) > 1 then begin
    t.mults.(s + i) <- t.mults.(s + i) - 1;
    false
  end
  else begin
    Array.blit t.heads (s + i + 1) t.heads (s + i) (t.len.(u) - i - 1);
    Array.blit t.mults (s + i + 1) t.mults (s + i) (t.len.(u) - i - 1);
    t.len.(u) <- t.len.(u) - 1;
    t.edges <- t.edges - 1;
    true
  end
