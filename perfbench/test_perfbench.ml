(* The benchmark's own test: its output check must fail a run whose
   reference is corrupted or whose field holds a non-finite value, and
   that failure must lower ok_frac.  Uses a tiny room so it runs in a
   second. *)

open Perfbench

let cache_dir = Filename.concat (Sys.getcwd ()) "perfbench-test-cache"

let tiny precision scheme shards : Workload.t =
  {
    name = "tiny";
    shape = Acoustics.Geometry.Dome;
    dims = Acoustics.Geometry.dims ~nx:14 ~ny:12 ~nz:10;
    scheme;
    precision;
    shards;
    steps = 24;
  }

let check_corruptions (w : Workload.t) =
  let inp = Workload.inputs w ~seed:7 in
  assert (inp = Workload.inputs w ~seed:7);
  let expected = Workload.reference w inp in
  let run = Workload.attempt ~cache_dir w inp in
  let out = run.out in
  let good = Workload.check w ~expected out in
  Alcotest.(check bool) "native run matches the reference" true good;
  (* a reference trace off by 1% of its peak at one sample *)
  let bad_trace = Array.copy expected.trace in
  let i = Array.length bad_trace - 1 in
  bad_trace.(i) <- bad_trace.(i) +. (0.01 *. Workload.peak expected.trace);
  let corrupted = Workload.check w ~expected:{ expected with trace = bad_trace } out in
  Alcotest.(check bool) "corrupted reference trace fails" false corrupted;
  (* one non-finite value in the final field *)
  let nan_field = Array.copy out.field in
  nan_field.(Array.length nan_field / 2) <- Float.nan;
  let non_finite = Workload.check w ~expected { out with field = nan_field } in
  Alcotest.(check bool) "non-finite field fails" false non_finite;
  let failed = List.length (List.filter not [ good; corrupted; non_finite ]) in
  Alcotest.(check (float 0.)) "ok_frac counts the failures" (1. /. 3.)
    (Workload.ok_frac ~attempted:3 ~failed)

let () =
  Alcotest.run "perfbench"
    [
      ( "output check",
        List.map
          (fun (label, w) -> Alcotest.test_case label `Quick (fun () -> check_corruptions w))
          [
            ("fd-mm f64 one device", tiny Kernel_ast.Cast.Double Workload.Fd_mm 1);
            ("fi-mm f32 two shards", tiny Kernel_ast.Cast.Single Workload.Fi_mm 2);
          ] );
    ]
