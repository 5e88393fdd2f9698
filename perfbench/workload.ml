(* The benchmark's workloads: fixed rooms, seeded inputs, the
   independent reference, and one attempt — a full run through the
   public API from geometry to receiver samples, on the native engine
   from a single OS thread.

   An attempt is the unit the benchmark counts: set-up (geometry, Lift
   codegen, Opt, C render + cc compile + load from an empty private
   cache, Gpu_sim.create, impulse, shard scatter), solve (the timed
   steps, each one Gpu_sim.step plus the receiver read, then the final
   Gpu_sim.sync) and read-out (the receiver trace and the final field).
   The attempt fails if it raises, leaves a non-finite value in the
   field, or misses the reference. *)

open Acoustics
module Cast = Kernel_ast.Cast

type scheme = Fi | Fi_mm | Fd_mm

type t = {
  name : string;
  shape : Geometry.shape;
  dims : Geometry.dims;
  scheme : scheme;
  precision : Cast.precision;
  shards : int;  (** 1: one device; more: Z-sharded under [`Seq] *)
  steps : int;  (** timed steps per attempt *)
}

(* The names are fixed; later changes refer to them.  NOTES.md says
   why each room was chosen and which layers it stresses. *)
let all =
  [
    (* kernel execution and argument marshalling dominate; no exchange *)
    {
      name = "box-fdmm-f64";
      shape = Geometry.Box;
      dims = Geometry.dims ~nx:96 ~ny:80 ~nz:64;
      scheme = Fd_mm;
      precision = Cast.Double;
      shards = 1;
      steps = 200;
    };
    (* f32 store rounding, irregular boundary, shard set-up, halo exchange *)
    {
      name = "dome-fimm-f32-2shard";
      shape = Geometry.Dome;
      dims = Geometry.dims ~nx:96 ~ny:80 ~nz:64;
      scheme = Fi_mm;
      precision = Cast.Single;
      shards = 2;
      steps = 200;
    };
    (* every grid fits in L2: dispatch and host orchestration dominate *)
    {
      name = "small-fi-f64-2shard";
      shape = Geometry.Box;
      dims = Geometry.dims ~nx:32 ~ny:24 ~nz:20;
      scheme = Fi;
      precision = Cast.Double;
      shards = 2;
      steps = 4000;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

let params = Params.default
let n_branches = 3
let fi_beta = 0.1
let materials = Material.defaults
let voxels w = Geometry.n_points w.dims

let programs w =
  let module P = Lift_acoustics.Programs in
  ("volume", P.volume ())
  ::
  (match w.scheme with
  | Fi -> [ ("boundary_fi", P.boundary_fi ()) ]
  | Fi_mm -> [ ("boundary_fi_mm", P.boundary_fi_mm ()) ]
  | Fd_mm -> [ ("boundary_fd_mm", P.boundary_fd_mm ~mb:n_branches ()) ])

let build_room w = Geometry.build ~n_materials:(Array.length materials) w.shape w.dims

(* {1 Seeded inputs} *)

type inputs = { source : int * int * int; receiver : int * int * int }

(* A voxel strictly inside the room: it and its six neighbours inside. *)
let rec inner_point rng w =
  let pick n = 1 + Random.State.int rng (n - 2) in
  let d = w.dims in
  let x = pick d.nx and y = pick d.ny and z = pick d.nz in
  let inside = Geometry.inside w.shape d in
  if
    inside x y z
    && inside (x - 1) y z
    && inside (x + 1) y z
    && inside x (y - 1) z
    && inside x (y + 1) z
    && inside x y (z - 1)
    && inside x y (z + 1)
  then (x, y, z)
  else inner_point rng w

(* The seed places the impulse source and the receiver.  The receiver
   lies within L1 distance steps/2 of the source, so the wave reaches it
   early in the run and the trace is not all zeros. *)
let inputs w ~seed =
  let rng = Random.State.make [| seed |] in
  let source = inner_point rng w in
  let sx, sy, sz = source in
  let rec receiver () =
    let ((x, y, z) as r) = inner_point rng w in
    if abs (x - sx) + abs (y - sy) + abs (z - sz) <= w.steps / 2 then r else receiver ()
  in
  { source; receiver = receiver () }

(* {1 Reference} *)

type outputs = { trace : float array; field : float array }

(* Ref_kernels: the paper's listings ported by hand to plain OCaml, in
   double precision — independent of Lift codegen, Opt and every
   engine.  Too slow a stand-in would be the interpreter (about 1.2 s
   per step on the 96x80x64 FD-MM box). *)
let reference w inp =
  let st = State.create ~n_branches (build_room w) in
  let x, y, z = inp.source in
  State.add_impulse st ~x ~y ~z;
  let t = Material.tables ~n_branches materials in
  let step =
    match w.scheme with
    | Fi -> fun () -> Ref_kernels.step_fi params st ~beta:fi_beta
    | Fi_mm -> fun () -> Ref_kernels.step_fi_mm params st ~beta:t.t_beta
    | Fd_mm ->
        fun () ->
          Ref_kernels.step_fd_mm params st ~beta:t.t_beta_fd ~bi:t.t_bi ~d:t.t_d ~f:t.t_f
            ~di:t.t_di
  in
  let rx, ry, rz = inp.receiver in
  let trace =
    Array.init w.steps (fun _ ->
        step ();
        State.read st ~x:rx ~y:ry ~z:rz)
  in
  { trace; field = Array.copy st.curr }

(* Tolerance, relative to the largest reference magnitude: double runs
   must match Ref_kernels to 1e-12 (rounding of a few differently
   associated operations); single-precision storage rounds every stored
   value to float32, so 1e-4 against the double reference. *)
let tolerance = function Cast.Double -> 1e-12 | Cast.Single -> 1e-4

let peak a = Array.fold_left (fun m v -> Float.max m (Float.abs v)) 0. a

let matches precision ~expected actual =
  let tol = tolerance precision *. Float.max (peak expected) Float.min_float in
  Array.length expected = Array.length actual
  && Array.for_all2 (fun e a -> Float.is_finite a && Float.abs (a -. e) <= tol) expected actual

let check w ~expected (o : outputs) =
  Array.for_all Float.is_finite o.field
  && matches w.precision ~expected:expected.trace o.trace
  && matches w.precision ~expected:expected.field o.field

(* The share of attempts that passed their check. *)
let ok_frac ~attempted ~failed = float_of_int (attempted - failed) /. float_of_int attempted

(* {1 One attempt} *)

type kernels = { raw : Cast.kernel list; opt : (Cast.kernel * Kernel_ast.Opt.report) list }

type times = {
  setup_s : float;
  solve_s : float;
  readout_s : float;
  step_ms : float array;
  cpu_s : float;  (** user + system time of the process during the solve *)
}

type run = {
  times : times;
  sim : Gpu_sim.t;
  kernels : kernels;
  out : outputs;
}

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let sp = Span.with_

(* Distribute the global state to the slabs now, inside set-up, instead
   of inside the first step: the same two operations Gpu_sim performs
   on first use. *)
let scatter (sim : Gpu_sim.t) =
  match sim.backend with
  | Gpu_sim.Single _ -> ()
  | Gpu_sim.Sharded s ->
      if not s.scattered then begin
        Shard.scatter s.plan sim.state s.sstates;
        s.scattered <- true
      end

(* Set-up through the public layers, each call in its own span.  The
   kernels are compiled here, before any timed step: Runtime charges a
   cold compile to the first launch's timer otherwise.  [extra] adds the
   calls a traced run times on their own (render, warm load, shard
   plan), which set-up itself does not need. *)
let setup ?(extra = false) w inp =
  sp "setup" (fun () ->
      let room = sp "geometry.build" (fun () -> build_room w) in
      let raw =
        List.map
          (fun (name, prog) ->
            sp "codegen" (fun () ->
                (Lift_acoustics.Programs.compile ~name ~optimize:false ~precision:w.precision
                   prog)
                  .Lift.Codegen.kernel))
          (programs w)
      in
      let opt = List.map (fun k -> sp "opt" (fun () -> Kernel_ast.Opt.optimize k)) raw in
      let ks = List.map fst opt in
      if extra then List.iter (fun k -> ignore (sp "native_c.render" (fun () -> Vgpu.Native.source k))) ks;
      List.iter (fun k -> ignore (sp "native.compile" (fun () -> Vgpu.Native.compile k))) ks;
      if extra then begin
        Vgpu.Native.reset_memo ();
        List.iter (fun k -> ignore (sp "native.load" (fun () -> Vgpu.Native.compile k))) ks;
        ignore (sp "shard.plan" (fun () -> Shard.plan ~n_branches ~shards:w.shards room))
      end;
      let sim =
        sp "gpu_sim.create" (fun () ->
            Gpu_sim.create ~engine:`Native ~optimize:false ~precision:w.precision ~materials
              ~n_branches ~fi_beta
              ?shards:(if w.shards > 1 then Some w.shards else None)
              ~schedule:`Seq params room)
      in
      let x, y, z = inp.source in
      State.add_impulse sim.state ~x ~y ~z;
      sp "shard.scatter" (fun () -> scatter sim);
      ({ raw; opt }, sim))

(* One attempt with a private, empty native cache in [cache_dir]. *)
let attempt ?extra ~cache_dir w inp =
  Vgpu.Native.set_cache_dir cache_dir;
  Vgpu.Native.reset_memo ();
  let t0 = Span.now_ns () in
  let kernels, sim = setup ?extra w inp in
  let setup_s = Span.ms_since t0 /. 1e3 in
  let ks = List.map fst kernels.opt in
  let rx, ry, rz = inp.receiver in
  let trace = Array.make w.steps 0. in
  let step_ms = Array.make w.steps 0. in
  let c0 = cpu () in
  let t1 = Span.now_ns () in
  sp "solve" (fun () ->
      for i = 0 to w.steps - 1 do
        let a = Span.now_ns () in
        Gpu_sim.step sim ks;
        trace.(i) <- Gpu_sim.read sim ~x:rx ~y:ry ~z:rz;
        step_ms.(i) <- Span.ms_since a
      done;
      sp "gpu_sim.sync" (fun () -> Gpu_sim.sync sim));
  let solve_s = Span.ms_since t1 /. 1e3 in
  let cpu_s = cpu () -. c0 in
  let t2 = Span.now_ns () in
  let out = sp "readout" (fun () -> { trace; field = Array.copy sim.state.curr }) in
  let readout_s = Span.ms_since t2 /. 1e3 in
  { times = { setup_s; solve_s; readout_s; step_ms; cpu_s }; sim; kernels; out }
