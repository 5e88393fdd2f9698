(* Spans around the benchmark's own calls into the library.

   A span has a name, a monotonic start and end, and the span that
   encloses it.  While recording is off, [with_] is a plain call; while
   it is on, spans are kept in memory and written out at the end of the
   run as Chrome trace-event JSON.  Every per-layer metric of a traced
   run is read off these spans. *)

let now_ns () = Monotonic_clock.now ()
let ms_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-6

type t = { id : int; name : string; parent : int; t0 : int64; t1 : int64 }

let recording = ref false
let spans : t list ref = ref []
let stack : int list ref = ref []
let next_id = ref 1

let with_ name f =
  if not !recording then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> 0 in
    stack := id :: !stack;
    let t0 = now_ns () in
    let finish () =
      let t1 = now_ns () in
      stack := List.tl !stack;
      spans := { id; name; parent; t0; t1 } :: !spans
    in
    Fun.protect ~finally:finish f
  end

let dur_ms s = Int64.to_float (Int64.sub s.t1 s.t0) *. 1e-6

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Complete ("X") events with microsecond timestamps on one thread, so
   viewers nest them by time. *)
let write_chrome path =
  let all = List.rev !spans in
  let origin = List.fold_left (fun m s -> min m s.t0) Int64.max_int all in
  let us t = Int64.to_float (Int64.sub t origin) /. 1e3 in
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then output_string oc ",\n";
      Printf.fprintf oc
        "{\"name\":%s,\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}"
        (json_string s.name) (us s.t0)
        (us s.t1 -. us s.t0)
        s.id s.parent)
    all;
  output_string oc "]}\n";
  close_out oc

(* The id the next span will get: spans recorded after [mark ()] have
   ids at least this. *)
let mark () = !next_id

(* Total duration (ms) of the spans called [name] recorded since [from]. *)
let sum_since from name =
  List.fold_left
    (fun acc s -> if s.id >= from && s.name = name then acc +. dur_ms s else acc)
    0. !spans
