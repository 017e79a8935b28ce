type arg = Recorder.arg =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

type phase = Recorder.phase = Begin | End | Instant | Counter

type event = Recorder.event = {
  name : string;
  phase : phase;
  ts : int;
  args : (string * arg) list;
}

type handle = int

let null_handle = 0

(* {1 Enabling}

   The span view fills the calling domain's event buffer; scopes are
   opened whenever it or the allocation view is on, since both read the
   scope tree. All recording state lives in [Recorder]. *)

let enabled () = Atomic.get Recorder.views land Recorder.scopes <> 0

let enable () = Recorder.set_view Recorder.spans true

let disable () = Recorder.set_view Recorder.spans false

let set_capacity n =
  if n < 1 then invalid_arg "Span.set_capacity: capacity must be >= 1";
  Atomic.set Recorder.capacity n

(* {1 Clock}

   [set_clock] installs an external integer clock (the simulator plugs
   its cycle counter in), [use_tick_clock] switches back, jumping the
   tick past the largest stamp already emitted so the timeline stays
   monotonic. *)

let set_clock f = (Recorder.get ()).Recorder.custom_clock <- Some f

let use_tick_clock () =
  let r = Recorder.get () in
  r.Recorder.custom_clock <- None;
  if r.Recorder.tick <= r.Recorder.last_ts then
    r.Recorder.tick <- r.Recorder.last_ts + 1

let now () =
  let r = Recorder.get () in
  match r.Recorder.custom_clock with Some f -> f () | None -> r.Recorder.tick

(* {1 Nesting}

   [enter] returns the new depth as the handle; [exit] must receive the
   handle of the innermost open span. A mismatch raises under
   [Obs.debug] and saturates otherwise: exits with no matching open
   span are ignored, exits over still-open children close the children
   first. Totals are never corrupted either way. *)

let enter ?(args = []) name =
  if Atomic.get Recorder.views land Recorder.scopes = 0 then null_handle
  else begin
    let r = Recorder.get () in
    Recorder.enter r name args;
    r.Recorder.depth
  end

let exit ?(args = []) h =
  if Atomic.get Recorder.views land Recorder.scopes <> 0 && h > null_handle
  then begin
    let r = Recorder.get () in
    if r.Recorder.depth < h then begin
      if Obs.debug () then
        invalid_arg "Span.exit: span already closed (double exit)"
    end
    else begin
      if r.Recorder.depth > h && Obs.debug () then
        invalid_arg "Span.exit: unclosed child spans";
      while r.Recorder.depth > h do
        Recorder.exit r []
      done;
      Recorder.exit r args
    end
  end

let with_ ?args name f =
  if not (enabled ()) then f ()
  else begin
    let h = enter ?args name in
    match f () with
    | r ->
      exit h;
      r
    | exception e ->
      exit ~args:[ ("exception", Str (Printexc.to_string e)) ] h;
      raise e
  end

let instant ?(args = []) name =
  if Atomic.get Recorder.views land Recorder.spans <> 0 then
    ignore (Recorder.record (Recorder.get ()) name Instant args)

let counter name args =
  if Atomic.get Recorder.views land Recorder.spans <> 0 then
    ignore (Recorder.record (Recorder.get ()) name Counter args)

let reset = Recorder.reset

let events () =
  let r = Recorder.get () in
  Array.to_list (Array.sub r.Recorder.buf 0 r.Recorder.len)

let num_events () = (Recorder.get ()).Recorder.len

let dropped () = (Recorder.get ()).Recorder.dropped

let current_depth () = (Recorder.get ()).Recorder.depth

(* {1 Chrome trace-event serialization}

   The JSON Array Format of the Trace Event spec, wrapped in the object
   form ({"traceEvents": [...]}) that Perfetto and chrome://tracing both
   import. Timestamps are the deterministic integer stamps above,
   declared as microseconds (the unit the format mandates); durations
   therefore read in ticks/cycles, which is exactly what a reproducible
   trace wants. [nue_obs] depends on nothing, so the escaping is local
   rather than borrowed from the pipeline's JSON module. *)

let escape s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string b "\\\""
       | '\\' -> Buffer.add_string b "\\\\"
       | '\n' -> Buffer.add_string b "\\n"
       | '\r' -> Buffer.add_string b "\\r"
       | '\t' -> Buffer.add_string b "\\t"
       | c when Char.code c < 0x20 ->
         Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let arg_value b = function
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f ->
    if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then
      Buffer.add_string b "null"
    else Buffer.add_string b (Printf.sprintf "%.12g" f)
  | Str s -> Buffer.add_string b (escape s)
  | Bool v -> Buffer.add_string b (if v then "true" else "false")

let add_args b args =
  Buffer.add_string b {|,"args":{|};
  List.iteri
    (fun i (k, v) ->
       if i > 0 then Buffer.add_char b ',';
       Buffer.add_string b (escape k);
       Buffer.add_char b ':';
       arg_value b v)
    args;
  Buffer.add_char b '}'

let add_event b e =
  let ph =
    match e.phase with
    | Begin -> "B"
    | End -> "E"
    | Instant -> "i"
    | Counter -> "C"
  in
  Buffer.add_string b {|{"name":|};
  Buffer.add_string b (escape e.name);
  Buffer.add_string b (Printf.sprintf {|,"cat":"nue","ph":"%s","ts":%d|} ph e.ts);
  Buffer.add_string b {|,"pid":1,"tid":1|};
  if e.phase = Instant then Buffer.add_string b {|,"s":"t"|};
  (match (e.phase, e.args) with
   | End, [] -> ()
   | _ -> add_args b e.args);
  Buffer.add_char b '}'

let to_chrome_string () =
  let r = Recorder.get () in
  let b = Buffer.create (256 + (96 * r.Recorder.len)) in
  Buffer.add_string b {|{"traceEvents":[|};
  for i = 0 to r.Recorder.len - 1 do
    if i > 0 then Buffer.add_char b ',';
    add_event b r.Recorder.buf.(i)
  done;
  Buffer.add_string b
    (Printf.sprintf
       {|],"displayTimeUnit":"ms","otherData":{"clock":"deterministic-ticks","dropped_events":%d}}|}
       r.Recorder.dropped);
  Buffer.contents b

(* {1 Flamegraph summary}

   The scope tree's inclusive tick totals, rendered as an indented tree
   sorted by total descending (name as tie-break, so the rendering is
   deterministic). *)

let flamegraph ?(width = 80) () =
  let root = (Recorder.get ()).Recorder.root in
  let grand_total =
    Hashtbl.fold (fun _ c acc -> acc + c.Recorder.ticks) root.Recorder.children 0
  in
  let b = Buffer.create 512 in
  let rec render indent (n : Recorder.node) =
    let kids = Hashtbl.fold (fun name c acc -> (name, c) :: acc) n.children [] in
    let kids =
      List.sort
        (fun (na, (a : Recorder.node)) (nb, (bb : Recorder.node)) ->
           match compare bb.ticks a.ticks with
           | 0 -> compare na nb
           | c -> c)
        kids
    in
    List.iter
      (fun (name, (c : Recorder.node)) ->
         let label = String.make (2 * indent) ' ' ^ name in
         let label =
           if String.length label > width - 28 then
             String.sub label 0 (width - 28)
           else label
         in
         let pct =
           if grand_total = 0 then 0.0
           else 100.0 *. float_of_int c.ticks /. float_of_int grand_total
         in
         Buffer.add_string b
           (Printf.sprintf "%-*s %10d ticks %6dx %5.1f%%\n" (width - 28)
              label c.ticks c.calls pct);
         render (indent + 1) c)
      kids
  in
  if grand_total = 0 && Hashtbl.length root.Recorder.children = 0 then
    Buffer.add_string b "(no spans recorded)\n"
  else render 0 root;
  Buffer.contents b
