(* The benchmark: one workload, one seed, a fixed measuring time.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Attempts (see Workload) run back to back until S seconds have passed,
   each with its own empty native cache; every attempt is checked
   against the reference.  With --trace 0 the last line of standard
   output is a JSON object with the end-to-end metrics; with --trace 1
   untraced and traced attempts alternate and the object holds the
   per-layer metrics.  The host line before it records the machine, the
   toolchain, the seed and the sample counts. *)

open Perfbench

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

type args = { workload : Workload.t; seed : int; seconds : float; trace : bool }

let parse () =
  let get k = function
    | Some v -> v
    | None -> fail "missing --%s (usage: --workload NAME --seed N --seconds S --trace 0|1)" k
  in
  let w = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let int k v = match int_of_string_opt v with Some n -> n | None -> fail "--%s: not an integer: %s" k v in
  let rec go = function
    | "--workload" :: v :: rest ->
        (match Workload.find v with
        | Some x -> w := Some x
        | None ->
            fail "unknown workload %s (one of: %s)" v
              (String.concat ", " (List.map (fun (w : Workload.t) -> w.name) Workload.all)));
        go rest
    | "--seed" :: v :: rest ->
        seed := Some (int "seed" v);
        go rest
    | "--seconds" :: v :: rest ->
        let s = int "seconds" v in
        if s < 1 then fail "--seconds must be at least 1";
        seconds := Some (float_of_int s);
        go rest
    | "--trace" :: v :: rest ->
        trace :=
          Some (match v with "0" -> false | "1" -> true | _ -> fail "--trace takes 0 or 1");
        go rest
    | [] -> ()
    | a :: _ -> fail "unexpected argument %s" a
  in
  go (List.tl (Array.to_list Sys.argv));
  {
    workload = get "workload" !w;
    seed = get "seed" !seed;
    seconds = get "seconds" !seconds;
    trace = get "trace" !trace;
  }

(* {1 Process and host} *)

(* The reference runs in a child process, so the parent's peak memory
   and CPU time are those of the workload alone. *)
let in_child f =
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let oc = Unix.out_channel_of_descr w in
      (try
         Marshal.to_channel oc (f ()) [];
         close_out oc
       with _ -> Unix._exit 1);
      Unix._exit 0
  | pid -> (
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let v = try Some (Marshal.from_channel ic) with End_of_file | Failure _ -> None in
      close_in ic;
      match (Unix.waitpid [] pid, v) with
      | (_, Unix.WEXITED 0), Some v -> v
      | _ -> fail "the reference run failed")

let read_lines path =
  match open_in path with
  | ic ->
      let rec go acc = match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc in
      let ls = go [] in
      close_in ic;
      ls
  | exception Sys_error _ -> []

let status_kb key =
  List.find_map
    (fun l ->
      match String.split_on_char ':' l with
      | [ k; v ] when k = key -> Scanf.sscanf_opt (String.trim v) "%d kB" Fun.id
      | _ -> None)
    (read_lines "/proc/self/status")

(* (steal, total) jiffies of all CPUs since boot. *)
let cpu_jiffies () =
  match read_lines "/proc/stat" with
  | l :: _ when String.length l > 4 && String.sub l 0 4 = "cpu " ->
      let xs =
        String.split_on_char ' ' l |> List.filter_map int_of_string_opt |> List.map float_of_int
      in
      let steal = match List.nth_opt xs 7 with Some s -> s | None -> 0. in
      (* guest time is already counted in user time *)
      (steal, List.fold_left ( +. ) 0. (List.filteri (fun i _ -> i < 8) xs))
  | _ -> (0., 0.)

(* Per-level cache sizes of CPU 0, e.g. [(2, "2048K"); (3, "307200K")]. *)
let caches () =
  let base = "/sys/devices/system/cpu/cpu0/cache" in
  match Sys.readdir base with
  | entries ->
      Array.to_list entries |> List.sort compare
      |> List.filter_map (fun e ->
             let read f = match read_lines (Filename.concat (Filename.concat base e) f) with
               | [ v ] -> Some v | _ -> None in
             match (read "level", read "type", read "size") with
             | Some l, Some t, Some s when t <> "Instruction" -> Some (int_of_string l, s)
             | _ -> None)
  | exception Sys_error _ -> []

(* Bytes of a sysfs cache size such as "2048K". *)
let size_bytes s =
  Scanf.sscanf_opt s "%d%c" (fun n u ->
      n * match u with 'K' -> 1024 | 'M' -> 1024 * 1024 | 'G' -> 1 lsl 30 | _ -> 1)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Unix.mkdir d 0o755
  end

(* {1 Statistics} *)

let median = Layers.median

(* Nearest-rank percentile. *)
let percentile p a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let json_metrics ms =
  String.concat ", "
    (List.map
       (fun (name, v, unit) ->
         Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name
           (if Float.is_finite v then v else 0.)
           unit)
       ms)

(* {1 Attempts} *)

(* The per-layer metrics of one traced attempt. *)
let layer_metrics (w : Workload.t) (r : Workload.run) ~mark ~compiles =
  (* the runtimes' own launch count, read before the probes add theirs *)
  let launches = (Acoustics.Gpu_sim.stats r.sim).s_launches in
  let p = Layers.probe w r in
  let sum name = Span.sum_since mark name in
  let ks = List.map fst r.kernels.opt in
  let step_p50 = median r.times.step_ms in
  let role_sum role f =
    List.fold_left
      (fun acc (l : Layers.launch_probe) -> if l.p_role = role then acc +. f l else acc)
      0. p.launches
  in
  let per_role role =
    let exec = role_sum role (fun l -> l.exec_ms)
    and marshal = role_sum role (fun l -> l.marshal_ms)
    and resolved = role_sum role (fun l -> l.resolved_ms)
    and bytes = role_sum role (fun l -> l.bytes) in
    let gbs = bytes /. ((exec -. marshal) *. 1e-3) /. 1e9 in
    [
      ("native.exec_ms." ^ role, exec, "ms");
      ("native.marshal_ms." ^ role, marshal, "ms");
      ("runtime.dispatch_us." ^ role, (resolved -. exec) *. 1e3, "us");
      ("kernel.bytes." ^ role, bytes, "B");
      ("kernel.gbs." ^ role, gbs, "GB/s");
      ("kernel.roofline_frac." ^ role, gbs /. p.triad_gbs, "ratio");
    ]
  in
  let launched = List.fold_left (fun acc (l : Layers.launch_probe) -> acc +. l.resolved_ms) 0. p.launches in
  [
    ("geometry.build_ms", sum "geometry.build", "ms");
    ("codegen.ms", sum "codegen", "ms");
    ("opt.ms", sum "opt", "ms");
    ( "opt.nodes",
      float_of_int
        (List.fold_left (fun a ((_, rep) : _ * Kernel_ast.Opt.report) -> a + rep.nodes_after) 0 r.kernels.opt),
      "count" );
    ("native_c.render_ms", sum "native_c.render", "ms");
    ( "native_c.src_bytes",
      float_of_int (List.fold_left (fun a k -> a + String.length (Vgpu.Native.source k)) 0 ks),
      "count" );
    ("native.compile_ms", sum "native.compile", "ms");
    ("native.load_ms", sum "native.load", "ms");
    ("native.compiles", float_of_int compiles, "count");
    ("shard.plan_ms", sum "shard.plan", "ms");
    ("gpu_sim.create_ms", sum "gpu_sim.create", "ms");
  ]
  @ per_role "volume" @ per_role "boundary"
  @ [
      ("stream.triad_gbs", p.triad_gbs, "GB/s");
      ("exchange.us_per_step", p.exchange_ms *. 1e3, "us");
      ("exchange.bytes_per_step", p.exchange_bytes, "B");
      ("exchange.ops_per_step", float_of_int p.exchange_ops, "count");
      ("launches_per_step", float_of_int launches /. float_of_int w.steps, "count");
      ("trace.step_ms_p50", step_p50, "ms");
      ("gpu_sim.host_us_per_step", (step_p50 -. launched -. p.exchange_ms) *. 1e3, "us");
      ("model.step_ms", p.model_ms, "ms");
      ("model.ratio", step_p50 /. p.model_ms, "ratio");
    ]

(* What an attempt leaves behind: its simulation is dropped, so peak
   memory is that of one attempt. *)
type outcome = { times : Workload.times; ok : bool; layers : (string * float * string) list }

(* Attempt [index], checked, in a fresh cache directory under [work];
   [None] when it raised.  A traced attempt records spans and, after the
   check, runs the layer probes. *)
let attempt ~work ~index ~traced ~expected (w : Workload.t) inp =
  let cache_dir = Filename.concat work (Printf.sprintf "cache-%d" index) in
  mkdir_p cache_dir;
  Gc.full_major ();
  Span.recording := traced;
  let mark = Span.mark () in
  Vgpu.Native.reset_counters ();
  let result =
    match Workload.attempt ~extra:traced ~cache_dir w inp with
    | run ->
        let compiles = (Vgpu.Native.counters ()).Vgpu.Native.c_compiles in
        let ok = Workload.check w ~expected run.out in
        let layers = if traced && ok then layer_metrics w run ~mark ~compiles else [] in
        Some { times = run.times; ok; layers }
    | exception e ->
        prerr_endline ("perfbench: attempt raised " ^ Printexc.to_string e);
        None
  in
  Span.recording := false;
  rm_rf cache_dir;
  result

(* {1 Main} *)

let () =
  let a = parse () in
  let w = a.workload in
  let inp = Workload.inputs w ~seed:a.seed in
  let root = ".perfbench" in
  let work = Filename.concat root (Printf.sprintf "%s-%d-%d" w.name a.seed (Unix.getpid ())) in
  mkdir_p work;
  (* nothing in this process may fall back to the user's cache *)
  Unix.putenv "RACS_CACHE_DIR" work;
  let expected = in_child (fun () -> Workload.reference w inp) in
  let steal0, total0 = cpu_jiffies () in
  let deadline = Int64.add (Span.now_ns ()) (Int64.of_float (a.seconds *. 1e9)) in
  let plain = ref [] and traced = ref [] and attempted = ref 0 and failed = ref 0 in
  let run ~traced:t into =
    incr attempted;
    match attempt ~work ~index:!attempted ~traced:t ~expected w inp with
    | Some o ->
        if not o.ok then incr failed;
        Printf.eprintf "perfbench: attempt %d traced=%b ok=%b setup_s=%.4f solve_s=%.4f step_ms_p50=%.4f\n%!"
          !attempted t o.ok o.times.setup_s o.times.solve_s (median o.times.step_ms);
        into := o :: !into
    | None -> incr failed
  in
  let hwm_mb = ref 0. in
  while !attempted = 0 || Span.now_ns () < deadline do
    run ~traced:false plain;
    (* peak memory of one run: every later attempt maps two more shared
       objects, which the process keeps loaded *)
    if !hwm_mb = 0. then hwm_mb := float_of_int (Option.value ~default:0 (status_kb "VmHWM")) /. 1024.;
    if a.trace then run ~traced:true traced
  done;
  let hwm_mb = !hwm_mb in
  let steal1, total1 = cpu_jiffies () in
  let plain = List.rev !plain and traced = List.rev !traced in
  if plain = [] then fail "no attempt finished";
  let runs = List.map (fun o -> o.times) plain in
  let med f = median (Array.of_list (List.map f runs)) in
  let steps = Array.concat (List.map (fun (r : Workload.times) -> r.step_ms) runs) in
  let solve_s = med (fun r -> r.solve_s) in
  let ok_frac = Workload.ok_frac ~attempted:!attempted ~failed:!failed in
  let metrics =
    if not a.trace then
      [
        ("setup_s", med (fun r -> r.setup_s), "s");
        ("solve_s", solve_s, "s");
        ("wall_s", med (fun r -> r.setup_s +. r.solve_s +. r.readout_s), "s");
        ("mvox_per_s", float_of_int (Workload.voxels w * w.steps) /. solve_s /. 1e6, "Mvox/s");
        ("step_ms_p50", percentile 0.5 steps, "ms");
        ("step_ms_p90", percentile 0.9 steps, "ms");
        ("peak_rss_mb", hwm_mb, "MB");
        ("ok_frac", ok_frac, "ratio");
      ]
    else begin
      let with_layers = List.filter (fun o -> o.layers <> []) traced in
      if with_layers = [] then fail "no traced attempt passed its check";
      let names = List.map (fun (n, _, u) -> (n, u)) (List.hd with_layers).layers in
      let traced_solve = median (Array.of_list (List.map (fun o -> o.times.Workload.solve_s) traced)) in
      List.map
        (fun (n, u) ->
          let vs = List.map (fun o -> List.find (fun (n', _, _) -> n' = n) o.layers) with_layers in
          (n, median (Array.of_list (List.map (fun (_, v, _) -> v) vs)), u))
        names
      @ [
          ("proc.cpu_s", med (fun r -> r.cpu_s), "s");
          ( "host.steal_frac",
            (if total1 > total0 then (steal1 -. steal0) /. (total1 -. total0) else 0.),
            "ratio" );
          ("trace.overhead_frac", (traced_solve /. solve_s) -. 1., "ratio");
        ]
    end
  in
  if a.trace then Span.write_chrome (Filename.concat root (Printf.sprintf "trace-%s-%d.json" w.name a.seed));
  rm_rf work;
  let caches = caches () in
  let cache = String.concat ", " (List.map (fun (l, s) -> Printf.sprintf "\"L%d\": %S" l s) caches) in
  let llc = List.fold_left (fun m (_, s) -> max m (Option.value ~default:0 (size_bytes s))) 0 caches in
  (* the grids of a step: prev, curr, next and nbrs *)
  let grid_bytes = 8 * Workload.voxels w in
  let sx, sy, sz = inp.source and rx, ry, rz = inp.receiver in
  Printf.printf
    "{\"host\": {\"nproc\": %d, \"cpus_allowed\": %d, \"cc\": %S, \"cflags\": %S, \"caches\": {%s}, \"grid_bytes\": %d, \"llc_bytes\": %d, \"grids_fit_llc\": %b, \"workload\": %S, \"seed\": %d, \"source\": [%d, %d, %d], \"receiver\": [%d, %d, %d], \"attempts\": %d, \"steps_per_attempt\": %d, \"step_samples\": %d}}\n"
    (List.length
       (List.filter
          (fun l -> String.length l > 9 && String.sub l 0 9 = "processor")
          (read_lines "/proc/cpuinfo")))
    (Domain.recommended_domain_count ())
    (Vgpu.Native.cc ()) (Vgpu.Native.flags ()) cache
    grid_bytes llc (4 * grid_bytes <= llc)
    w.name a.seed
    sx sy sz rx ry rz
    !attempted w.steps (Array.length steps);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0) !attempted !failed (json_metrics metrics)
