(* The per-domain observability recorder. One state per domain holds the
   event buffer and the scope tree; counters, spans and allocation are
   views of it. See recorder.mli for the semantics. *)

type arg =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

type phase = Begin | End | Instant | Counter

type event = {
  name : string;
  phase : phase;
  ts : int;
  args : (string * arg) list;
}

(* {1 Views}

   Global configuration read by every domain, so one [Atomic] bit set
   rather than domain-local state. The disabled path of every
   instrumentation site is one load and one mask of it. *)

let views = Atomic.make 0

let counters = 1

let spans = 2

let alloc = 4

let scopes = spans lor alloc

let rec set_view v on =
  let cur = Atomic.get views in
  let next = if on then cur lor v else cur land lnot v in
  if not (Atomic.compare_and_set views cur next) then set_view v on

let viewing v = Atomic.get views land v <> 0

let clock : (unit -> float) Atomic.t = Atomic.make Sys.time

let set_clock f = Atomic.set clock f

let now () = (Atomic.get clock) ()

(* {1 The scope tree} *)

type node = {
  name : string;
  children : (string, node) Hashtbl.t;
  mutable counts : int array;
  mutable timer_secs : float array;
  mutable timer_acts : int array;
  mutable calls : int;
  mutable ticks : int;
  mutable secs : float;
  mutable self_secs : float;
  mutable minor_words : float;
  mutable major_words : float;
  mutable promoted_words : float;
  mutable minor_gcs : int;
  mutable major_gcs : int;
}

let new_node name =
  { name; children = Hashtbl.create 4; counts = [||]; timer_secs = [||];
    timer_acts = [||]; calls = 0; ticks = 0; secs = 0.; self_secs = 0.;
    minor_words = 0.; major_words = 0.; promoted_words = 0.; minor_gcs = 0;
    major_gcs = 0 }

let child n name =
  match Hashtbl.find_opt n.children name with
  | Some c -> c
  | None ->
    let c = new_node name in
    Hashtbl.replace n.children name c;
    c

let rec iter f n =
  f n;
  Hashtbl.iter (fun _ c -> iter f c) n.children

(* Cells grow on demand; a missing cell reads as zero. *)
let grow a id zero =
  if id < Array.length a then a
  else begin
    let b = Array.make (max (id + 1) (2 * Array.length a)) zero in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let add_cells add zero dst src =
  let dst = grow dst (Array.length src - 1) zero in
  Array.iteri (fun i v -> dst.(i) <- add dst.(i) v) src;
  dst

let rec merge dst src =
  dst.counts <- add_cells ( + ) 0 dst.counts src.counts;
  dst.timer_secs <- add_cells ( +. ) 0. dst.timer_secs src.timer_secs;
  dst.timer_acts <- add_cells ( + ) 0 dst.timer_acts src.timer_acts;
  dst.calls <- dst.calls + src.calls;
  dst.ticks <- dst.ticks + src.ticks;
  dst.secs <- dst.secs +. src.secs;
  dst.self_secs <- dst.self_secs +. src.self_secs;
  dst.minor_words <- dst.minor_words +. src.minor_words;
  dst.major_words <- dst.major_words +. src.major_words;
  dst.promoted_words <- dst.promoted_words +. src.promoted_words;
  dst.minor_gcs <- dst.minor_gcs + src.minor_gcs;
  dst.major_gcs <- dst.major_gcs + src.major_gcs;
  Hashtbl.iter (fun name c -> merge (child dst name) c) src.children

(* {1 The per-domain state} *)

type reading = {
  r_wall : float;
  r_minor : float;
  r_major : float;
  r_promoted : float;
  r_minor_gcs : int;
  r_major_gcs : int;
}

(* [quick_stat.minor_words] is only refreshed at collection points;
   [Gc.minor_words] reads the young pointer and is exact at any
   instant, which short scopes need. *)
let read () =
  let q = Gc.quick_stat () in
  { r_wall = now (); r_minor = Gc.minor_words (); r_major = q.Gc.major_words;
    r_promoted = q.Gc.promoted_words; r_minor_gcs = q.Gc.minor_collections;
    r_major_gcs = q.Gc.major_collections }

(* [wall0] is NaN when the scope opened outside the allocation view. *)
type frame = { node : node; ts0 : int; wall0 : float }

type t = {
  mutable root : node;
  mutable frames : frame list;
  mutable depth : int;
  mutable buf : event array;
  mutable len : int;
  mutable dropped : int;
  mutable tick : int;
  mutable last_ts : int;
  mutable custom_clock : (unit -> int) option;
  mutable base : reading;
}

let dummy = { name = ""; phase = Instant; ts = 0; args = [] }

let key =
  Domain.DLS.new_key (fun () ->
    { root = new_node ""; frames = []; depth = 0; buf = Array.make 1024 dummy;
      len = 0; dropped = 0; tick = 0; last_ts = 0; custom_clock = None;
      base = read () })

let get () = Domain.DLS.get key

let current r = match r.frames with f :: _ -> f.node | [] -> r.root

let capacity = Atomic.make 262_144

let reset () =
  let r = get () in
  r.root <- new_node "";
  r.frames <- [];
  r.depth <- 0;
  r.len <- 0;
  r.dropped <- 0;
  r.tick <- 0;
  r.last_ts <- 0;
  r.custom_clock <- None;
  r.base <- read ()

(* Allocation view: charge the wall time and Gc deltas since the last
   scope boundary to the innermost scope. Called at every boundary, so
   a node's fields are its self cost and inclusive cost is a sum over
   the subtree. *)
let settle r =
  let b = r.base and x = read () in
  let n = current r in
  n.self_secs <- n.self_secs +. Float.max 0. (x.r_wall -. b.r_wall);
  n.minor_words <- n.minor_words +. (x.r_minor -. b.r_minor);
  n.major_words <- n.major_words +. (x.r_major -. b.r_major);
  n.promoted_words <- n.promoted_words +. (x.r_promoted -. b.r_promoted);
  n.minor_gcs <- n.minor_gcs + (x.r_minor_gcs - b.r_minor_gcs);
  n.major_gcs <- n.major_gcs + (x.r_major_gcs - b.r_major_gcs);
  r.base <- x

(* {1 Recording}

   The tick default makes stamps a pure function of the local event
   sequence; an external clock (the simulator's cycle counter) stamps
   without advancing the tick. Events past the cap are counted as
   dropped, while scopes keep nesting. *)

let record r name phase args =
  let ts =
    match r.custom_clock with
    | Some f -> f ()
    | None ->
      let t = r.tick in
      r.tick <- t + 1;
      t
  in
  if ts > r.last_ts then r.last_ts <- ts;
  if viewing spans then begin
    let cap = Atomic.get capacity in
    if r.len >= Array.length r.buf && Array.length r.buf < cap then begin
      let nbuf = Array.make (min cap (2 * Array.length r.buf)) dummy in
      Array.blit r.buf 0 nbuf 0 r.len;
      r.buf <- nbuf
    end;
    (* The cap may sit below the physical array size (set_capacity
       after the buffer already grew, or below the initial 1024). *)
    if r.len < cap && r.len < Array.length r.buf then begin
      r.buf.(r.len) <- { name; phase; ts; args };
      r.len <- r.len + 1
    end
    else r.dropped <- r.dropped + 1
  end;
  ts

let enter r name args =
  let ts0 = record r name Begin args in
  let wall0 =
    if viewing alloc then begin
      settle r;
      r.base.r_wall
    end
    else Float.nan
  in
  r.frames <- { node = child (current r) name; ts0; wall0 } :: r.frames;
  r.depth <- r.depth + 1

let exit r args =
  match r.frames with
  | [] -> ()
  | f :: rest ->
    let n = f.node in
    let ts = record r n.name End args in
    n.calls <- n.calls + 1;
    n.ticks <- n.ticks + (ts - f.ts0);
    if viewing alloc then begin
      settle r;
      if not (Float.is_nan f.wall0) then
        n.secs <- n.secs +. Float.max 0. (r.base.r_wall -. f.wall0)
    end;
    r.frames <- rest;
    r.depth <- r.depth - 1

let count id n =
  let node = current (get ()) in
  let c = grow node.counts id 0 in
  node.counts <- c;
  c.(id) <- c.(id) + n

let time id secs =
  let node = current (get ()) in
  node.timer_secs <- grow node.timer_secs id 0.;
  node.timer_acts <- grow node.timer_acts id 0;
  node.timer_secs.(id) <- node.timer_secs.(id) +. secs;
  node.timer_acts.(id) <- node.timer_acts.(id) + 1

(* {1 Task capture}

   [mark] swaps in a fresh detached tree and notes the buffer, tick and
   stamp position; [cut] takes the tree and the events past the mark
   and puts the recorder back. Recording a task in place and absorbing
   its cut on the same domain give the same recorder, whichever domain
   ran the task: with the tick clock a scope's duration is the number
   of events inside it, wherever they were stamped. *)

type mark = {
  m_root : node;
  m_frames : frame list;
  m_depth : int;
  m_len : int;
  m_tick : int;
  m_last_ts : int;
  m_dropped : int;
}

type slice = { s_root : node; s_events : event list; s_dropped : int }

let mark () =
  let r = get () in
  if viewing alloc then settle r;
  let m =
    { m_root = r.root; m_frames = r.frames; m_depth = r.depth; m_len = r.len;
      m_tick = r.tick; m_last_ts = r.last_ts; m_dropped = r.dropped }
  in
  r.root <- new_node "";
  r.frames <- [];
  r.depth <- 0;
  m

let cut m =
  let r = get () in
  if viewing alloc then settle r;
  let s_root = r.root in
  s_root.self_secs <- 0.;
  let s =
    { s_root; s_events = Array.to_list (Array.sub r.buf m.m_len (r.len - m.m_len));
      s_dropped = r.dropped - m.m_dropped }
  in
  r.root <- m.m_root;
  r.frames <- m.m_frames;
  r.depth <- m.m_depth;
  r.len <- m.m_len;
  r.tick <- m.m_tick;
  r.last_ts <- m.m_last_ts;
  r.dropped <- m.m_dropped;
  s

let absorb s =
  let r = get () in
  List.iter (fun (e : event) -> ignore (record r e.name e.phase e.args)) s.s_events;
  r.dropped <- r.dropped + s.s_dropped;
  merge (current r) s.s_root
