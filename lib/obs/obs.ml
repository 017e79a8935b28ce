(* Domain-sharded registry. Registration (name -> id) is global and
   mutex-protected; the *values* live in per-domain shards reached
   through [Domain.DLS], so two domains incrementing the same counter
   never race. A worker domain drains its shard when it finishes
   ([drain_shard]) and the spawning domain folds it in ([absorb_shard])
   — the pool in [lib/parallel] does this in worker-index order, so
   merged totals are a function of the work performed, not of the
   schedule. *)

type counter = { c_id : int; c_name : string }

type timer = { t_id : int; t_name : string }

(* Per-domain value cells. Arrays grow on demand to the registered
   count; a missing cell reads as zero. *)
type tcell = {
  mutable total : float;
  mutable acts : int;
}

type shard_state = {
  mutable cvals : int array;
  mutable tvals : tcell array;
}

let shard_key =
  Domain.DLS.new_key (fun () -> { cvals = [||]; tvals = [||] })

let shard () = Domain.DLS.get shard_key

let on = Atomic.make false

let enabled () = Atomic.get on

let enable () = Atomic.set on true

let disable () = Atomic.set on false

let reg_mutex = Mutex.create ()

let locked f =
  Mutex.lock reg_mutex;
  match f () with
  | v -> Mutex.unlock reg_mutex; v
  | exception e -> Mutex.unlock reg_mutex; raise e

(* Debug mode: unbalanced span exits raise instead of saturating. Off
   in release so production tracing can never throw. *)
let debug_on = Atomic.make false

let debug () = Atomic.get debug_on

let set_debug b = Atomic.set debug_on b

let clock : (unit -> float) Atomic.t = Atomic.make Sys.time

let set_clock f = Atomic.set clock f

(* Registration tables: name -> handle, plus the reverse list for
   snapshots. Ids are dense, assigned in registration order. *)
let counters : (string, counter) Hashtbl.t = Hashtbl.create 64

let counter_list : counter list ref = ref []

let n_counters = ref 0

let timers : (string, timer) Hashtbl.t = Hashtbl.create 16

let timer_list : timer list ref = ref []

let n_timers = ref 0

let counter name =
  locked (fun () ->
    match Hashtbl.find_opt counters name with
    | Some c -> c
    | None ->
      let c = { c_id = !n_counters; c_name = name } in
      incr n_counters;
      Hashtbl.replace counters name c;
      counter_list := c :: !counter_list;
      c)

let fresh_tcell () = { total = 0.0; acts = 0 }

(* Grow the calling domain's cells up to the registered count. Reading
   [!n_counters] without the lock is fine: registration only grows the
   count, and the id we are about to index was published before the
   handle reached us. *)
let ccells id =
  let s = shard () in
  if id >= Array.length s.cvals then begin
    let n = max (id + 1) !n_counters in
    let nv = Array.make n 0 in
    Array.blit s.cvals 0 nv 0 (Array.length s.cvals);
    s.cvals <- nv
  end;
  s.cvals

let tcells id =
  let s = shard () in
  if id >= Array.length s.tvals then begin
    let n = max (id + 1) !n_timers in
    let nv = Array.init n (fun i ->
      if i < Array.length s.tvals then s.tvals.(i) else fresh_tcell ())
    in
    s.tvals <- nv
  end;
  s.tvals

let incr c =
  if Atomic.get on then begin
    let v = ccells c.c_id in
    v.(c.c_id) <- v.(c.c_id) + 1
  end

let add c n =
  if Atomic.get on then begin
    let v = ccells c.c_id in
    v.(c.c_id) <- v.(c.c_id) + n
  end

let peek c =
  let s = shard () in
  if c.c_id < Array.length s.cvals then s.cvals.(c.c_id) else 0

let timer name =
  locked (fun () ->
    match Hashtbl.find_opt timers name with
    | Some t -> t
    | None ->
      let t = { t_id = !n_timers; t_name = name } in
      Stdlib.incr n_timers;
      Hashtbl.replace timers name t;
      timer_list := t :: !timer_list;
      t)

let time t f =
  if not (Atomic.get on) then f ()
  else begin
    let clk = Atomic.get clock in
    let t0 = clk () in
    let record () =
      let cell = (tcells t.t_id).(t.t_id) in
      cell.total <- cell.total +. (clk () -. t0);
      cell.acts <- cell.acts + 1
    in
    match f () with
    | r -> record (); r
    | exception e -> record (); raise e
  end

type timer_total = { seconds : float; activations : int }

type snapshot = {
  counters : (string * int) list;
  timers : (string * timer_total) list;
}

let registered () = locked (fun () -> (!counter_list, !timer_list))

let snapshot () =
  let cl, tl = registered () in
  let s = shard () in
  let cs =
    List.map
      (fun c ->
         let v = if c.c_id < Array.length s.cvals then s.cvals.(c.c_id) else 0 in
         (c.c_name, v))
      cl
  in
  let ts =
    List.map
      (fun t ->
         let total, acts =
           if t.t_id < Array.length s.tvals then
             let cell = s.tvals.(t.t_id) in
             (cell.total, cell.acts)
           else (0.0, 0)
         in
         (t.t_name, { seconds = total; activations = acts }))
      tl
  in
  let by_name (a, _) (b, _) = compare (a : string) b in
  { counters = List.sort by_name cs; timers = List.sort by_name ts }

let reset () =
  let s = shard () in
  Array.fill s.cvals 0 (Array.length s.cvals) 0;
  Array.iter
    (fun cell ->
       cell.total <- 0.0;
       cell.acts <- 0)
    s.tvals

(* {1 Shard transfer}

   [drain_shard] snapshots the calling domain's cells and zeroes them;
   [absorb_shard] adds a drained shard into the calling domain's cells
   (counters, timer seconds and activations all sum). *)

type shard = {
  d_cvals : int array;
  d_tvals : (float * int) array;
}

let drain_shard () =
  let s = shard () in
  let cv = Array.copy s.cvals in
  let tv = Array.map (fun cell -> (cell.total, cell.acts)) s.tvals in
  reset ();
  { d_cvals = cv; d_tvals = tv }

let absorb_shard d =
  let nc = Array.length d.d_cvals in
  if nc > 0 then begin
    let v = ccells (nc - 1) in
    for id = 0 to nc - 1 do
      v.(id) <- v.(id) + d.d_cvals.(id)
    done
  end;
  let nt = Array.length d.d_tvals in
  if nt > 0 then begin
    let tv = tcells (nt - 1) in
    for id = 0 to nt - 1 do
      let seconds, acts = d.d_tvals.(id) in
      let cell = tv.(id) in
      cell.total <- cell.total +. seconds;
      cell.acts <- cell.acts + acts
    done
  end

let find s name =
  match List.assoc_opt name s.counters with Some v -> v | None -> 0

let find_timer s name =
  match List.assoc_opt name s.timers with
  | Some v -> v
  | None -> { seconds = 0.0; activations = 0 }
