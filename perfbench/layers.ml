(* Per-layer probes of a traced attempt, run after its outputs have been
   checked (they re-launch kernels on the finished state, which they
   overwrite).

   A step of the workload is its launches — one per kernel per device —
   plus, when sharded, the halo exchange.  For every launch the probes
   time, on the same arguments the simulation binds:

   - Native.launch over the full NDRange (kernel execution with the
     stub's marshalling),
   - Native.launch over an empty NDRange (the marshalling alone: the
     stub still copies every int buffer in and out),
   - Runtime.launch_resolved (the runtime's dispatch on top).

   The exchange is timed as Multi.run_op over the Exchange ops of one
   step of Gpu_sim.step_plan.  The rest of a measured step is host
   orchestration inside Gpu_sim (binding, rotation, the receiver read):
   the residual of the breakdown. *)

open Acoustics
module Cast = Kernel_ast.Cast

let reps = 25

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Time (ms) of [f] in a span called [name]. *)
let timed name f =
  let t0 = Span.now_ns () in
  Span.with_ name f;
  Span.ms_since t0

(* p50 (ms) of each of [fs] over [reps] rounds; within a round the
   calls run back to back, so drift in the host affects all alike. *)
let p50s ?(reps = reps) fs =
  let ts = List.map (fun _ -> Array.make reps 0.) fs in
  for i = 0 to reps - 1 do
    List.iter2 (fun a (name, f) -> a.(i) <- timed name f) ts fs
  done;
  List.map median ts

type launch = {
  role : string;  (** "volume" or "boundary": the kernel's place in the step *)
  rt : Vgpu.Runtime.t;
  kernel : Cast.kernel;
  args : Vgpu.Args.t list;
  global : int list;
}

let role (k : Cast.kernel) = if k.name = "volume" then "volume" else "boundary"

(* One step's launches and exchanges, with the arguments resolved the way
   the simulation resolves them.  Sharded: read off Gpu_sim.step_plan.
   One device: the runtime's buffer table as the last step bound it,
   the scalars of Gpu_sim.check_env, the real scalars from Params. *)
let one_step (sim : Gpu_sim.t) ks =
  match sim.backend with
  | Gpu_sim.Sharded s ->
      let plan = Gpu_sim.step_plan sim ks ~steps:1 in
      let launches =
        List.filter_map
          (function
            | Vgpu.Multi.Dev (i, Vgpu.Runtime.Launch { kernel; args; global }) ->
                let rt = Vgpu.Multi.device s.multi i in
                Some
                  {
                    role = role kernel;
                    rt;
                    kernel;
                    args = List.map (Vgpu.Runtime.resolve_arg rt) args;
                    global;
                  }
            | _ -> None)
          plan
      in
      let exchanges =
        List.filter (function Vgpu.Multi.Exchange _ -> true | _ -> false) plan
      in
      (launches, exchanges, Some s.multi)
  | Gpu_sim.Single rt ->
      let env = Gpu_sim.check_env sim in
      let int_of name = Option.get (env.Kernel_ast.Check.param_value name) in
      let launch (k : Cast.kernel) =
        let args =
          List.map
            (fun (p : Cast.param) ->
              match (p.p_kind, p.p_ty) with
              | Cast.Global_buf, _ -> Vgpu.Args.Buf (Vgpu.Runtime.buffer rt p.p_name)
              | Cast.Scalar_param, Cast.Int -> Vgpu.Args.Int_arg (int_of p.p_name)
              | Cast.Scalar_param, Cast.Real ->
                  Vgpu.Args.Real_arg
                    (match p.p_name with
                    | "l" -> Params.l sim.params
                    | "l2" -> Params.l2 sim.params
                    | _ -> sim.fi_beta))
            k.params
        in
        let global =
          List.map (fun e -> Option.get (Kernel_ast.Check.const_eval env e)) k.global_size
        in
        { role = role k; rt; kernel = k; args; global }
      in
      (List.map launch ks, [], None)

(* Computed bytes one launch moves, not measured: per buffer, the loads
   and the stores of one work-item (Kernel_ast.Analysis) times the
   work-items, each capped at the buffer's length, at 8 B an element —
   the width actually stored (an OCaml float array holds doubles in
   either precision) and copied (the stub widens int arrays to
   int64). *)
let computed_bytes l =
  let lengths =
    List.combine l.kernel.params l.args
    |> List.filter_map (fun ((p : Cast.param), a) ->
           match a with Vgpu.Args.Buf b -> Some (p.p_name, Vgpu.Buffer.length b) | _ -> None)
  in
  let scalars =
    List.combine l.kernel.params l.args
    |> List.filter_map (fun ((p : Cast.param), a) ->
           match a with Vgpu.Args.Int_arg n -> Some (p.p_name, n) | _ -> None)
  in
  let items = float_of_int (List.fold_left ( * ) 1 l.global) in
  let counts =
    Kernel_ast.Analysis.kernel_counts ~param_value:(fun n -> List.assoc_opt n scalars) l.kernel
  in
  Kernel_ast.Analysis.fold_buffers counts
    (fun acc name (a : Kernel_ast.Analysis.access) ->
      let len = float_of_int (Option.value ~default:0 (List.assoc_opt name lengths)) in
      acc +. (8. *. (Float.min len (a.loads *. items) +. Float.min len (a.stores *. items))))
    0.

type launch_probe = {
  p_role : string;
  exec_ms : float;  (** p50 of Native.launch, full NDRange *)
  marshal_ms : float;  (** p50 of Native.launch, empty NDRange *)
  resolved_ms : float;  (** p50 of Runtime.launch_resolved *)
  bytes : float;
}

let probe_launch l =
  let c = Vgpu.Native.compile l.kernel in
  match
    p50s
      [
        ("native.launch." ^ l.role, fun () -> Vgpu.Native.launch c ~args:l.args ~global:l.global);
        ("native.marshal." ^ l.role, fun () -> Vgpu.Native.launch c ~args:l.args ~global:[ 0 ]);
        ( "runtime.launch_resolved." ^ l.role,
          fun () -> Vgpu.Runtime.launch_resolved l.rt l.kernel ~args:l.args ~global:l.global );
      ]
  with
  | [ exec_ms; marshal_ms; resolved_ms ] ->
      { p_role = l.role; exec_ms; marshal_ms; resolved_ms; bytes = computed_bytes l }
  | _ -> assert false

(* {1 STREAM triad} *)

let triad =
  let open Cast in
  let i = Global_id 0 in
  {
    name = "stream_triad";
    params =
      [
        param "a" Real;
        param "b" Real;
        param "c" Real;
        param ~kind:Scalar_param "s" Real;
        param ~kind:Scalar_param "n" Int;
      ];
    body = [ Store ("a", i, load "b" i +: (var "s" *: load "c" i)) ];
    precision = Double;
    global_size = [ var "n" ];
    local_size = [];
  }

(* Triad a = b + s*c over three float buffers of [n] elements, launched
   through Native: GB/s at 24 B an element (two loads, one store; the
   write-allocate read is not counted).  Launches are batched to at
   least a millisecond, so launch overhead stays small on small grids. *)
let triad_gbs n =
  let c = Vgpu.Native.compile triad in
  let a = Array.make n 0. and b = Array.make n 1. and cc = Array.make n 2. in
  let args = Vgpu.Args.[ Buf (F a); Buf (F b); Buf (F cc); Real_arg 3.; Int_arg n ] in
  let launch () = Vgpu.Native.launch c ~args ~global:[ n ] in
  launch ();
  if a.(n - 1) <> 7. then failwith "stream triad: wrong result";
  let t0 = Span.now_ns () in
  launch ();
  let batch = max 1 (int_of_float (1. /. Float.max 1e-4 (Span.ms_since t0))) in
  let ms =
    p50s ~reps:21
      [
        ( "stream.triad",
          fun () ->
            for _ = 1 to batch do
              launch ()
            done );
      ]
  in
  24. *. float_of_int n *. float_of_int batch /. (List.hd ms *. 1e-3) /. 1e9

(* {1 Perf_model} *)

(* Predicted step time (ms) on Device.host: Perf_model.predict per
   kernel on one device, predict_sharded when sharded (which prices the
   slabs as running concurrently, while the workloads run them in
   sequence under `Seq). *)
let model_step_ms (w : Workload.t) (kernels : Workload.kernels) =
  List.fold_left
    (fun acc (k : Cast.kernel) ->
      let kind : Harness.Workloads.kind =
        if k.name = "volume" then Volume
        else match w.scheme with Workload.Fd_mm -> Boundary Workload.n_branches | _ -> Boundary 0
      in
      let wl = Harness.Workloads.workload kind w.shape w.dims in
      acc
      +.
      if w.shards > 1 then
        Vgpu.Perf_model.predict_sharded Vgpu.Device.host k wl
          ~plane_elems:(w.dims.nx * w.dims.ny) ~shards:w.shards
      else Vgpu.Perf_model.predict Vgpu.Device.host k wl)
    0. kernels.raw
  *. 1e3

(* {1 One traced step's breakdown} *)

type t = {
  launches : launch_probe list;
  exchange_ms : float;  (** p50 of one step's exchanges *)
  exchange_bytes : float;  (** computed: elements x 8 B *)
  exchange_ops : int;
  triad_gbs : float;
  model_ms : float;
}

let probe (w : Workload.t) (r : Workload.run) =
  let ks = List.map fst r.kernels.opt in
  let launches, exchanges, multi = one_step r.sim ks in
  let launches = List.map probe_launch launches in
  let exchange =
    p50s
      [
        ( "multi.exchange",
          fun () -> Option.iter (fun m -> List.iter (Vgpu.Multi.run_op m) exchanges) multi );
      ]
  in
  let exchange_bytes =
    List.fold_left
      (fun acc -> function
        | Vgpu.Multi.Exchange { elems; _ } -> acc +. (8. *. float_of_int elems) | _ -> acc)
      0. exchanges
  in
  {
    launches;
    exchange_ms = List.hd exchange;
    exchange_bytes;
    exchange_ops = List.length exchanges;
    triad_gbs = Span.with_ "stream" (fun () -> triad_gbs (Workload.voxels w));
    model_ms = model_step_ms w r.kernels;
  }
