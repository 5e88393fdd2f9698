(* Drive a room-acoustics simulation through the virtual GPU.

   Kernel arguments are resolved *by parameter name* against the live
   simulation state, so the same driver runs the hand-written kernels and
   the Lift-generated kernels (both follow the paper's naming convention:
   prev/curr/next grids, bidx/nbrs/material boundary data, beta/bi/d/f/di
   coefficient tables, g1/v1/v2 branch state).

   Launches go through a [Vgpu.Runtime] so the engine choice (reference
   interpreter, sequential JIT, domain-parallel JIT), the JIT cache and
   the per-kernel launch statistics are shared with host-program plans.

   The per-step kernel sequence is the paper's two-kernel structure:
   volume handling first, boundary handling second, then buffer rotation
   on the host.

   Two backends:

   - [Single]: one virtual device holding the global arrays — the
     original driver.
   - [Sharded] ([create ~shards:n]): the grid is cut into Z slabs
     ({!Shard.plan}), each slab running on its own device of a
     {!Vgpu.Multi}.  Every shard buffer is bound once, at [create], on
     its device.  One builder ([build_block]) turns a kernel list into
     the host plan of one T-step block: per-device launches on buffer
     names, the block's halo exchanges, and the rotation as per-device
     [Swap] ops.  The plan is cached per kernel list, executed as is by
     every schedule, and handed out unchanged by [step_plan] and
     [overlap_plan] — so the plan [racs check] verifies is the plan that
     runs.  The results are bit-for-bit identical to the single-device
     run; [sync] gathers the slabs back into [state].

   The schemes that shard are the nbrs-driven ones (volume +
   boundary_fi / boundary_fi_mm / boundary_fd_mm).  The fused Listing-1
   kernel derives its boundary mask from global coordinates and is only
   correct on the full grid. *)

open Kernel_ast.Cast

type engine =
  [ `Interp  (** reference interpreter *)
  | `Jit  (** sequential JIT *)
  | `Jit_parallel of int  (** JIT over this many OCaml domains *)
  | `Native  (** compiled-C backend, loaded via [dlopen] *) ]

(* How a sharded step is scheduled:
   - [`Seq]: the step's plan runs op by op on the host thread;
   - [`Concurrent]: each device's launches run through the domain pool
     (wall-clock parallel), with a barrier at the halo exchange;
   - [`Overlap]: per-device {!Vgpu.Queue} command queues with event
     dependencies — the volume kernel splits into interior + frontier
     launches so halo exchanges overlap interior compute, and steps
     pipeline (no per-step barrier; draining happens on [sync]/[read]/
     stats access).  All three are bit-for-bit identical. *)
type schedule = [ `Seq | `Concurrent | `Overlap ]

(* One T-step block of the sharded schedule: T per-step segments and the
   number of event ids one block signals.  Event ids are block-relative:
   [0, events) are signalled inside the block; a negative id [e] names
   the previous block's event [e + events].  [number] maps them to the
   ids of a concrete block. *)
type block = { segments : Vgpu.Multi.async_plan array; events : int }

type backend =
  | Single of Vgpu.Runtime.t
  | Sharded of {
      multi : Vgpu.Multi.t;
      plan : Shard.plan;
      sstates : Shard.shard_state array;
      schedule : schedule;
      tblock : int;  (* temporal block depth T = the shards' halo *)
      mutable bpos : int;  (* position within the current block, 0..T-1 *)
      mutable scattered : bool;  (* state has been distributed to the shards *)
      mutable blocks : (kernel list * bool * block) list;
          (* cache: (kernels, split into interior/frontier) -> block plan *)
      mutable ev_base : int;  (* first event id of the current overlapped block *)
      mutable ov_imports : (int * Vgpu.Queue.event) list;
          (* events exported by the last submit, imported by the next *)
    }

type t = {
  params : Params.t;
  state : State.t;
  tables : Material.tables;
  fi_beta : float;  (* single-material admittance for the FI kernels *)
  engine : engine;
  precision : Kernel_ast.Cast.precision;
  req_tblock : int;  (* requested temporal block depth *)
  backend : backend;
  mutable launches : int;
}

let runtime_engine : engine -> Vgpu.Runtime.engine = function
  | `Interp -> Vgpu.Runtime.Interp
  | `Jit -> Vgpu.Runtime.Jit
  | `Jit_parallel domains -> Vgpu.Runtime.Jit_parallel { domains }
  | `Native -> Vgpu.Runtime.Native

(* The read-only coefficient tables, shared across devices. *)
let table_buffer (tables : Material.tables) name : Vgpu.Buffer.t option =
  match name with
  | "beta" -> Some (Vgpu.Buffer.F tables.Material.t_beta)
  | "beta_fd" -> Some (Vgpu.Buffer.F tables.Material.t_beta_fd)
  | "bi" -> Some (Vgpu.Buffer.F tables.Material.t_bi)
  | "d" -> Some (Vgpu.Buffer.F tables.Material.t_d)
  | "f" -> Some (Vgpu.Buffer.F tables.Material.t_f)
  | "di" -> Some (Vgpu.Buffer.F tables.Material.t_di)
  | _ -> None

(* Shard-local buffers: grids and branch state from the shard's state,
   boundary data from the shard plan. *)
let shard_buffers (sh : Shard.shard) (ss : Shard.shard_state) =
  [
    ("prev", Vgpu.Buffer.F ss.Shard.prev);
    ("curr", Vgpu.Buffer.F ss.Shard.curr);
    ("next", Vgpu.Buffer.F ss.Shard.next);
    ("nbrs", Vgpu.Buffer.I sh.Shard.nbrs);
    ("bidx", Vgpu.Buffer.I sh.Shard.bidx);
    ("material", Vgpu.Buffer.I sh.Shard.material);
    ("g1", Vgpu.Buffer.F ss.Shard.g1);
    ("v2", Vgpu.Buffer.F ss.Shard.vel_prev);
    ("v1", Vgpu.Buffer.F ss.Shard.vel_next);
  ]

let create ?(engine = `Jit) ?(optimize = true) ?unroll_budget ?(fi_beta = 0.1)
    ?(materials = Material.defaults) ?(n_branches = 3) ?shards ?schedule ?(precision = Double)
    ?(tblock = 1) ?verify ?(sanitize = false) params room =
  let re = runtime_engine engine in
  let tables = Material.tables ~n_branches materials in
  let backend =
    match shards with
    | None ->
        Single
          (Vgpu.Runtime.create ~engine:re ~optimize ?unroll_budget ~precision
             ?verify ~sanitize ())
    | Some n ->
        let plan = Shard.plan ~n_branches ~halo:tblock ~shards:n room in
        let devices = Shard.n_shards plan in
        let schedule =
          match schedule with
          | Some `Overlap when sanitize ->
              (* checked execution needs deterministic scheduling
                 (Multi.submit_async refuses sanitizers); fall back to
                 the sequential schedule, which sanitizes fine *)
              `Seq
          | Some s -> s
          | None -> (
              (* legacy default: concurrent, except under [`Jit_parallel]
                 whose launches already occupy the pool exclusively *)
              match engine with `Jit_parallel _ -> `Seq | _ -> `Concurrent)
        in
        let multi =
          Vgpu.Multi.create ~engine:re ~optimize ?unroll_budget ~precision ?verify ~sanitize
            ~devices ()
        in
        let sstates = Shard.create_states plan in
        (* bind once: scatter fills these arrays in place and the plan's
           Swap ops rotate the bindings, so they stay live for the run *)
        Array.iteri
          (fun i ss ->
            List.iter
              (fun (name, b) -> Vgpu.Multi.bind multi i name b)
              (shard_buffers plan.Shard.shards.(i) ss
              @ List.filter_map
                  (fun n -> Option.map (fun b -> (n, b)) (table_buffer tables n))
                  [ "beta"; "beta_fd"; "bi"; "d"; "f"; "di" ]))
          sstates;
        Sharded
          {
            multi;
            plan;
            sstates;
            schedule;
            (* effective block depth: Shard.plan clamps the halo to the
               thinnest slab, so re-read it from the shards *)
            tblock = plan.Shard.shards.(0).Shard.halo;
            bpos = 0;
            scattered = false;
            blocks = [];
            ev_base = 0;
            ov_imports = [];
          }
  in
  {
    params;
    state = State.create ~n_branches room;
    tables;
    fi_beta;
    engine;
    precision;
    req_tblock = max 1 tblock;
    backend;
    launches = 0;
  }

(* Effective temporal block depth: the requested [tblock] clamped by the
   thinnest slab when sharded (the requested value on a single device,
   where no halo constrains it). *)
let tblock t =
  match t.backend with Single _ -> t.req_tblock | Sharded s -> s.tblock

let n_shards t =
  match t.backend with Single _ -> 1 | Sharded s -> Shard.n_shards s.plan

let scalar_int t name =
  let { Geometry.nx; ny; nz } = t.state.room.Geometry.dims in
  match name with
  | "Nx" -> nx
  | "Ny" -> ny
  | "Nz" -> nz
  | "NxNy" -> nx * ny
  | "N" -> nx * ny * nz
  | "nB" -> Geometry.n_boundary t.state.room
  | "MB" -> t.state.n_branches
  | "NM" -> Array.length t.tables.Material.t_beta
  | _ -> failwith (Printf.sprintf "gpu_sim: unknown int scalar %s" name)

(* Per-shard scalars: the grid extents become the local slab's (owned
   planes + ghosts), the boundary count becomes the shard's range. *)
let scalar_int_shard t (sh : Shard.shard) name =
  match name with
  | "Nz" -> sh.Shard.planes
  | "NxNy" -> sh.Shard.plane
  | "N" -> sh.Shard.local_n
  | "nB" -> sh.Shard.n_b
  | _ -> scalar_int t name

let scalar_real t name =
  match name with
  | "l" -> Params.l t.params
  | "l2" -> Params.l2 t.params
  | "beta" -> t.fi_beta
  | _ -> failwith (Printf.sprintf "gpu_sim: unknown real scalar %s" name)

let buffer t name : Vgpu.Buffer.t =
  let st = t.state in
  let room = st.room in
  match table_buffer t.tables name with
  | Some b -> b
  | None -> (
      match name with
      | "prev" -> Vgpu.Buffer.F st.prev
      | "curr" -> Vgpu.Buffer.F st.curr
      | "next" -> Vgpu.Buffer.F st.next
      | "nbrs" -> Vgpu.Buffer.I room.Geometry.nbrs
      | "bidx" -> Vgpu.Buffer.I room.Geometry.boundary_indices
      | "material" -> Vgpu.Buffer.I room.Geometry.material
      | "g1" -> Vgpu.Buffer.F st.g1
      | "v2" -> Vgpu.Buffer.F st.vel_prev
      | "v1" -> Vgpu.Buffer.F st.vel_next
      | _ -> failwith (Printf.sprintf "gpu_sim: unknown buffer %s" name))

(* Resolve the kernel's symbolic global size against a scalar
   environment.  Tiled kernels round their NDRange up to the work-group
   size with [((Nx + tw - 1) / tw) * tw]-shaped expressions, so the
   evaluator handles constant integer arithmetic, not just bare names. *)
let global_size ~int_scalar (k : kernel) =
  let rec ev e =
    match e with
    | Int_lit n -> n
    | Var name -> int_scalar name
    | Binop (op, a, b) -> (
        let a = ev a and b = ev b in
        match op with
        | Add -> a + b
        | Sub -> a - b
        | Mul -> a * b
        | Div -> a / b
        | Mod -> a mod b
        | _ -> failwith "gpu_sim: unsupported global size expression")
    | _ -> failwith "gpu_sim: unsupported global size expression"
  in
  List.map ev k.global_size

(* A launch of [k]: buffers by parameter name, scalars resolved now. *)
let launch_op t ~int_scalar ?global (k : kernel) =
  let global = match global with Some g -> g | None -> global_size ~int_scalar k in
  let args =
    List.map
      (fun p ->
        match (p.p_kind, p.p_ty) with
        | Global_buf, _ -> Vgpu.Runtime.A_buf p.p_name
        | Scalar_param, Int -> Vgpu.Runtime.A_int (int_scalar p.p_name)
        | Scalar_param, Real -> Vgpu.Runtime.A_real (scalar_real t p.p_name))
      k.params
  in
  Vgpu.Runtime.Launch { kernel = k; args; global }

(* -- The sharded step plan ------------------------------------------- *)

(* A kernel is splittable into interior/frontier ranges when it sweeps
   the full local grid: the volume kernels launch over [Var "N"].  The
   boundary kernels ([Var "nB"]) touch owned points only, so plain FIFO
   order behind the volume launches already orders them correctly. *)
let splittable (k : kernel) =
  match k.global_size with [ Var "N" ] -> true | _ -> false

(* Does the kernel sequence carry persistent per-boundary-point branch
   state (the FD-MM scheme)?  If so, a block boundary must also refresh
   the ghost slices of [g1]/[v1]: a ghost boundary point at depth d only
   maintains its state to generation T-d locally. *)
let uses_branch_state (kernels : kernel list) =
  List.exists
    (fun (k : kernel) -> List.exists (fun p -> p.p_name = "g1") k.params)
    kernels

(* The exchanges of one block boundary: the freshly written [next] at
   full depth T (it becomes [curr], whose ghosts the next block reads to
   depth T); the previous generation [curr] at depth T-1 (it becomes
   [prev], read at radius 0 by writes of validity up to T-1) — skipped
   for T <= 2, where the redundant in-block recompute already left it
   valid to depth 1 locally; and the ghost branch-state slices for
   schemes that carry them.  At T = 1 this reduces to exactly the
   original per-step [next] exchange. *)
let block_exchange_plan (p : Shard.plan) ~tblock ~has_state : Vgpu.Multi.plan =
  Shard.exchange_ops ~depth:tblock p ~buffer:"next"
  @ (if tblock > 2 then Shard.exchange_ops ~depth:(tblock - 1) p ~buffer:"curr" else [])
  @ (if has_state && tblock > 1 then
       Shard.state_exchange_ops p ~buffer:"g1" @ Shard.state_exchange_ops p ~buffer:"v1"
     else [])

(* The per-device rotation closing every step, mirrored on the host by
   {!Shard.rotate_state}. *)
let rotation = [ ("prev", "curr"); ("curr", "next"); ("v2", "v1") ]

let aop ?(waits = []) ?signal op = { Vgpu.Multi.a_op = op; a_waits = waits; a_signal = signal }

let is_launch (o : Vgpu.Multi.async_op) =
  match o.Vgpu.Multi.a_op with Vgpu.Multi.Dev (_, Vgpu.Runtime.Launch _) -> true | _ -> false

(* Build one T-step block of [kernels] over the shards of [p]: the only
   place sharded-step launches and exchanges are made.  Segment [bpos]
   (0..T-1) holds, per device, the launches of every kernel in order;
   the last segment adds the block's exchanges; every segment ends with
   the per-device rotation Swaps.

   [split] builds the overlapped form.  At the block start each
   splittable kernel becomes its interior range first (no waits — it
   starts immediately), then the halo-deep frontier ranges, each waiting
   on the previous block's exchanges into the ghost zone its stencil
   reads; a non-splittable kernel that reads [curr] ghosts (the
   2.5D-tiled stencil), and at T >= 2 every kernel (the boundary kernels
   read exchanged ghost branch state), carries both sides' waits itself.
   Mid-block launches wait on nothing: per-queue FIFO order suffices.
   At the block end each exchange runs on its source device's queue and
   signals a fresh event; at T >= 2 it also waits on the *destination*
   device's last launch, whose redundant ghost writes it overwrites.
   Without [split] the launches are unsplit and carry no events. *)
let build_block t (p : Shard.plan) ~split (kernels : kernel list) : block =
  let n = Shard.n_shards p and tb = p.Shard.shards.(0).Shard.halo in
  let exchanges = block_exchange_plan p ~tblock:tb ~has_state:(uses_branch_state kernels) in
  (* event ids: at a deep block end device i's last launch signals i,
     the k-th exchange signals n_sig + k *)
  let dev_sigs = split && tb > 1 && n > 1 && kernels <> [] in
  let n_sig = if dev_sigs then n else 0 in
  let events = if split then n_sig + List.length exchanges else 0 in
  (* per device: the previous block's exchange events into its (bottom,
     top) ghost zone.  Grid exchanges land on one side of the slab,
     branch-state slices order both sides. *)
  let incs = Array.make n ([], []) in
  List.iteri
    (fun k -> function
      | Vgpu.Multi.Exchange { dst_dev = j; dst; dst_off; _ } when split ->
          let ev = n_sig + k - events and lo, hi = incs.(j) in
          let sh = p.Shard.shards.(j) in
          incs.(j) <-
            (if not (List.mem dst [ "next"; "curr"; "prev" ]) then (lo @ [ ev ], hi @ [ ev ])
             else if dst_off < sh.Shard.halo * sh.Shard.plane then (lo @ [ ev ], hi)
             else (lo, hi @ [ ev ]))
      | _ -> ())
    exchanges;
  let ranged =
    List.map (fun k -> if split && splittable k then Some (offset_global_id k) else None) kernels
  in
  let segment bpos =
    let start = bpos = 0 and last = bpos = tb - 1 in
    let device i =
      let sh = p.Shard.shards.(i) and lo, hi = incs.(i) in
      let launch ?waits ?goff ?global k =
        let int_scalar name =
          match goff with Some g when name = "goff" -> g | _ -> scalar_int_shard t sh name
        in
        aop ?waits (Vgpu.Multi.Dev (i, launch_op t ~int_scalar ?global k))
      in
      let ops =
        List.concat
          (List.map2
             (fun (k : kernel) rk ->
               match rk with
               | Some rk when start ->
                   List.map
                     (fun (kind, goff, count) ->
                       let waits =
                         match kind with
                         | Shard.Interior -> []
                         | Shard.Frontier_lo -> lo
                         | Shard.Frontier_hi -> hi
                         | Shard.Frontier_both -> lo @ hi
                       in
                       launch ~waits ~goff ~global:[ count ] rk)
                     (Shard.split_ranges sh)
               | _ ->
                   let reads_ghosts = tb > 1 || List.exists (fun p -> p.p_name = "curr") k.params in
                   [ launch ~waits:(if split && start && reads_ghosts then lo @ hi else []) k ])
             kernels ranged)
      in
      let nops = List.length ops in
      if dev_sigs && last then
        List.mapi (fun j o -> if j = nops - 1 then { o with Vgpu.Multi.a_signal = Some i } else o) ops
      else ops
    in
    let exchange k op =
      match op with
      | Vgpu.Multi.Exchange { dst_dev; _ } when split ->
          aop ~waits:(if dev_sigs then [ dst_dev ] else []) ~signal:(n_sig + k) op
      | op -> aop op
    in
    let devices = List.init n Fun.id in
    List.concat_map device devices
    @ (if last then List.mapi exchange exchanges else [])
    @ List.concat_map
        (fun i -> List.map (fun (a, b) -> aop (Vgpu.Multi.Dev (i, Vgpu.Runtime.Swap (a, b)))) rotation)
        devices
  in
  { segments = Array.init tb segment; events }

(* The cached block plan of [kernels] in the given form, built on first
   use.  Lookup is by physical, then structural, equality of the kernel
   list; the cache keeps the few most recent lists. *)
let block_of t ~split (kernels : kernel list) =
  match t.backend with
  | Single _ -> invalid_arg "gpu_sim: the step plan needs a sharded backend"
  | Sharded s -> (
      let same ks =
        List.compare_lengths ks kernels = 0 && List.for_all2 (fun a b -> a == b || a = b) ks kernels
      in
      match List.find_opt (fun (ks, sp, _) -> sp = split && same ks) s.blocks with
      | Some (_, _, b) -> b
      | None ->
          let b = build_block t s.plan ~split kernels in
          s.blocks <- (kernels, split, b) :: List.filteri (fun i _ -> i < 7) s.blocks;
          b)

(* A segment with its block-relative event ids made concrete for the
   block whose first id is [base]; references to a previous block are
   dropped when there is none. *)
let number ~base seg =
  List.map
    (fun (o : Vgpu.Multi.async_op) ->
      {
        o with
        Vgpu.Multi.a_waits =
          List.filter_map (fun w -> if base + w >= 0 then Some (base + w) else None) o.a_waits;
        a_signal = Option.map (( + ) base) o.a_signal;
      })
    seg

(* [steps] segments from a block start, numbered as a fresh run numbers
   them. *)
let unrolled b ~steps =
  let tb = Array.length b.segments in
  List.concat_map (fun st -> number ~base:(st / tb * b.events) b.segments.(st mod tb))
    (List.init steps Fun.id)

(* Drain this simulation's device queues (no-op when none were used);
   every host-side observation of sharded state goes through here. *)
let drain t =
  match t.backend with
  | Single _ -> ()
  | Sharded s -> Vgpu.Multi.finish_async s.multi

(* Distribute the global state to the shards on first use, so impulses
   added through [State.add_impulse] before the first step are seen.
   The copy is in place: the device bindings made at [create] stay
   valid. *)
let ensure_scattered t =
  match t.backend with
  | Single _ -> ()
  | Sharded s ->
      if not s.scattered then begin
        Shard.scatter s.plan t.state s.sstates;
        s.scattered <- true
      end

(* Launch one kernel (on every shard, when sharded) without stepping. *)
let launch t (k : kernel) =
  match t.backend with
  | Single rt ->
      t.launches <- t.launches + 1;
      List.iter
        (fun p -> if p.p_kind = Global_buf then Vgpu.Runtime.bind rt p.p_name (buffer t p.p_name))
        k.params;
      Vgpu.Runtime.run_op rt (launch_op t ~int_scalar:(scalar_int t) k)
  | Sharded s ->
      drain t;
      ensure_scattered t;
      Array.iteri
        (fun i sh ->
          Vgpu.Runtime.run_op (Vgpu.Multi.device s.multi i)
            (launch_op t ~int_scalar:(scalar_int_shard t sh) k))
        s.plan.Shard.shards;
      t.launches <- t.launches + n_shards t

(* Run the current segment of [kernels]' cached block plan — [`Seq]: op
   by op; [`Concurrent]: the segment's leading launches fan out over the
   domain pool, one task per device, then its exchanges and Swaps run on
   the host thread; [`Overlap]: submitted to the device queues; [replay]:
   the overlapped form on the calling domain, in the queue interleaving
   [pick] chooses.  The host state then follows the Swaps (under
   [`Overlap] they ran at submission) and the block position advances. *)
let exec_step ?replay t (kernels : kernel list) =
  match t.backend with
  | Single _ -> invalid_arg "gpu_sim: this step needs a sharded backend"
  | Sharded s ->
      ensure_scattered t;
      let b = block_of t ~split:(replay <> None || s.schedule = `Overlap) kernels in
      let seg = number ~base:s.ev_base b.segments.(s.bpos) in
      let run (o : Vgpu.Multi.async_op) = Vgpu.Multi.run_op s.multi o.a_op in
      let n = Shard.n_shards s.plan in
      (match (replay, s.schedule) with
      | Some pick, _ ->
          (* replay is synchronous: every earlier block's events fired *)
          let imports =
            List.concat_map
              (fun (o : Vgpu.Multi.async_op) -> List.filter (fun e -> e < s.ev_base) o.a_waits)
              seg
          in
          Vgpu.Multi.run_async_with ~imports ?pick s.multi seg
      | None, `Overlap ->
          (* only the latest block's exchange events are ever waited on,
             so the fresh exports replace the previous step's imports *)
          s.ov_imports <- Vgpu.Multi.submit_async ~imports:s.ov_imports s.multi seg
      | None, `Concurrent when n > 1 ->
          let launches, rest = List.partition is_launch seg in
          Vgpu.Pool.run Vgpu.Pool.global ~n (fun i ->
              List.iter
                (fun (o : Vgpu.Multi.async_op) ->
                  match o.a_op with Vgpu.Multi.Dev (d, _) when d = i -> run o | _ -> ())
                launches);
          List.iter run rest
      | None, (`Seq | `Concurrent) -> List.iter run seg);
      t.launches <- t.launches + List.length (List.filter is_launch seg);
      Array.iter Shard.rotate_state s.sstates;
      s.bpos <- (s.bpos + 1) mod s.tblock;
      if s.bpos = 0 then s.ev_base <- s.ev_base + b.events

(* One time step: run each kernel in order, then rotate the buffers. *)
let step t (kernels : kernel list) =
  match t.backend with
  | Single _ ->
      List.iter (launch t) kernels;
      State.rotate t.state
  | Sharded _ -> exec_step t kernels

(* One overlapped time step replayed deterministically on the calling
   domain, whatever the configured schedule; works with sanitizers (do
   not mix with [`Overlap] steps on the same simulation). *)
let step_overlap_with ?pick t kernels = exec_step ~replay:pick t kernels

(* The overlapped form of the cached plan over [steps] steps from a block
   start: what [`Overlap] and [step_overlap_with] run on a fresh
   simulation, for {!Lift.Lint.check_async}/[verify_async]. *)
let overlap_plan t kernels ~steps = unrolled (block_of t ~split:true kernels) ~steps

(* The cached plan over [steps] steps from a block start: exactly the ops
   [step] runs under [`Seq]/[`Concurrent], for {!Lift.Lint.verify_plan}. *)
let step_plan t kernels ~steps =
  List.map (fun (o : Vgpu.Multi.async_op) -> o.a_op) (unrolled (block_of t ~split:false kernels) ~steps)

(* Slab geometry of the sharded backend, for the flow verifier. *)
let slab_geometry t =
  match t.backend with
  | Single _ -> invalid_arg "gpu_sim: slab_geometry needs a sharded backend"
  | Sharded s ->
      let d = t.state.room.Geometry.dims in
      ( d.Geometry.nx,
        d.Geometry.ny,
        Array.map (fun (sh : Shard.shard) -> sh.Shard.planes) s.plan.Shard.shards )

(* Copy the sharded slabs back into the global [state] arrays (no-op on
   a single device, where [state] is live). *)
let sync t =
  drain t;
  match t.backend with
  | Single _ -> ()
  | Sharded s -> if s.scattered then Shard.gather s.plan s.sstates t.state

(* Read the current field at a grid point, wherever it lives. *)
let read t ~x ~y ~z =
  drain t;
  match t.backend with
  | Sharded s when s.scattered ->
      let sh = Shard.owner s.plan ~z in
      let ss = s.sstates.(sh.Shard.index) in
      ss.Shard.curr.(((z - sh.Shard.z0 + sh.Shard.halo) * sh.Shard.plane)
                     + (y * t.state.room.Geometry.dims.Geometry.nx) + x)
  | Single _ | Sharded _ -> State.read t.state ~x ~y ~z

let stats t =
  drain t;
  match t.backend with
  | Single rt -> Vgpu.Runtime.stats rt
  | Sharded s -> Vgpu.Multi.stats s.multi

(* The live sanitizers, one per device (empty unless ~sanitize:true). *)
let sanitizers t =
  match t.backend with
  | Single rt -> Option.to_list (Vgpu.Runtime.sanitizer rt)
  | Sharded s ->
      Array.to_list s.multi.Vgpu.Multi.devices
      |> List.filter_map Vgpu.Runtime.sanitizer

let violations t = (stats t).Vgpu.Runtime.s_violations

(* Static-verification environment mirroring this simulation's argument
   resolution: scalars resolve like [scalar_int], buffer extents are the
   live arrays' lengths.  Lets [racs check] and tests run
   [Kernel_ast.Check] against exactly the values a launch would see. *)
let check_env t =
  let param_value name =
    match scalar_int t name with n -> Some n | exception Failure _ -> None
  in
  let buffer_elems name =
    match buffer t name with
    | b -> Some (Vgpu.Buffer.length b)
    | exception Failure _ -> None
  in
  Kernel_ast.Check.env ~param_value ~buffer_elems ()

let per_shard_stats t =
  drain t;
  match t.backend with
  | Single rt -> [ (0, Vgpu.Runtime.stats rt) ]
  | Sharded s -> Vgpu.Multi.per_device_stats s.multi

let pp_stats ppf t =
  drain t;
  match t.backend with
  | Single rt -> Vgpu.Runtime.pp_stats ppf (Vgpu.Runtime.stats rt)
  | Sharded s -> Vgpu.Multi.pp_stats ppf s.multi

(* Drain, then zero the launch/transfer counters and re-align the queue
   clocks, so a measurement interval starts clean. *)
let reset_stats t =
  drain t;
  match t.backend with
  | Single rt -> Vgpu.Runtime.reset_stats rt
  | Sharded s -> Vgpu.Multi.reset_stats s.multi

(* Sharded schedule of this simulation, if sharded. *)
let schedule t =
  match t.backend with Single _ -> None | Sharded s -> Some s.schedule

(* Virtual critical path (ns) across this simulation's device queues:
   the longest per-queue virtual clock after draining.  0 on a single
   device or when the overlapped schedule was never used. *)
let overlap_vclock_ns t =
  drain t;
  match t.backend with
  | Single _ -> 0.
  | Sharded s -> Vgpu.Multi.async_vclock s.multi

(* Aggregate queue statistics (busy vs critical path vs overlap saved);
   [None] on a single device. *)
let overlap_stats t =
  drain t;
  match t.backend with
  | Single _ -> None
  | Sharded s -> Some (Vgpu.Multi.overlap_stats s.multi)

(* Static per-step cost profile of the temporal-blocking tradeoff. *)
type blocked_stats = {
  bs_tblock : int;  (* effective block depth T *)
  bs_exchanges_per_step : float;  (* d2d copy ops per time step *)
  bs_halo_bytes_per_step : float;  (* d2d bytes per time step *)
  bs_redundant_points : int;
      (* ghost points with real geometry, recomputed redundantly on
         every in-block step across all shards *)
}

let blocked_stats t (kernels : kernel list) =
  match t.backend with
  | Single _ -> None
  | Sharded s ->
      let elem = match t.precision with Double -> 8 | Single -> 4 in
      let exs, bytes =
        List.fold_left
          (fun (n, b) op ->
            match op with
            | Vgpu.Multi.Exchange { elems; _ } -> (n + 1, b + (elems * elem))
            | Vgpu.Multi.Dev _ -> (n, b))
          (0, 0)
          (step_plan t kernels ~steps:s.tblock)
      in
      let redundant = ref 0 in
      Array.iter
        (fun (sh : Shard.shard) ->
          let h = sh.Shard.halo in
          let count_plane p =
            for q = p * sh.Shard.plane to ((p + 1) * sh.Shard.plane) - 1 do
              if sh.Shard.nbrs.(q) > 0 then incr redundant
            done
          in
          for p = 1 to h - 1 do
            count_plane p
          done;
          for p = sh.Shard.planes - h to sh.Shard.planes - 2 do
            if p > h - 1 then count_plane p
          done)
        s.plan.Shard.shards;
      let tb = float_of_int s.tblock in
      Some
        {
          bs_tblock = s.tblock;
          bs_exchanges_per_step = float_of_int exs /. tb;
          bs_halo_bytes_per_step = float_of_int bytes /. tb;
          bs_redundant_points = !redundant;
        }

(* Run [steps] steps recording the field at the receiver after each. *)
let run t (kernels : kernel list) ~steps ~receiver:(rx, ry, rz) =
  let out = Array.make steps 0. in
  for n = 0 to steps - 1 do
    step t kernels;
    out.(n) <- read t ~x:rx ~y:ry ~z:rz
  done;
  out
