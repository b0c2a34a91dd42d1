(* The three workloads, and the fleet passes and crypto probes that
   traced runs add to them.  Each workload is a deterministic unit of
   work, a function of the benchmark seed alone: [prepare ~seed] draws
   the inputs from the benchmark's own generator (untimed), the
   returned set-up function builds the rig (timed as set-up), and the
   thunk it returns runs the timed phase once and checks its outputs.
   Running the same unit twice must give the same fingerprint: every
   exact simulated count and digest, never a host number.  Why each
   workload is here, and which layers it should and should not move,
   is in README.md beside this file. *)

module Scenarios = Guillotine_faults.Scenarios
module Deployment = Guillotine_core.Deployment
module Vet_corpus = Guillotine_core.Vet_corpus
module Fleet = Guillotine_fleet.Fleet
module Cell = Guillotine_fleet.Cell
module Inference = Guillotine_hv.Inference
module Hypervisor = Guillotine_hv.Hypervisor
module Attest = Guillotine_net.Attest
module Engine = Guillotine_sim.Engine
module Machine = Guillotine_machine.Machine
module Core = Guillotine_microarch.Core
module Jit = Guillotine_microarch.Jit
module Dram = Guillotine_memory.Dram
module Hierarchy = Guillotine_memory.Hierarchy
module Covert = Guillotine_model.Covert
module Guest = Guillotine_model.Guest_programs
module Vocab = Guillotine_model.Vocab
module Asm = Guillotine_isa.Asm
module Isa = Guillotine_isa.Isa
module Encoding = Guillotine_isa.Encoding
module Vet = Guillotine_vet.Vet
module Interfere = Guillotine_vet.Interfere
module Monitor = Guillotine_obs.Monitor
module Telemetry = Guillotine_telemetry.Telemetry
module Signature = Guillotine_crypto.Signature
module Sha256 = Guillotine_crypto.Sha256

let span = Span.with_span

type outcome = {
  span_of_run : float * float;  (* start and stop of the timed phase *)
  ops : (float * float) array;  (* start and stop of each client operation *)
  attempted : int;
  failed : int;
  fingerprint : (string * string) list;  (* exact simulated results *)
  counts : (string * float) list;  (* work done, for the per-layer ratios *)
  gc : Pace.gc;  (* GC activity over the timed phase, probes left out *)
}

type t = {
  name : string;
  unit_s : float;
      (* one set-up and unit in scaled seconds (Pace): --seconds S
         measures round(S / unit_s) units, and at least two, so both
         sides of a comparison do the same work *)
  prepare : seed:int -> pins:(string * string) list option -> unit -> unit -> outcome;
      (* [pins] is the pinned fingerprint at the default seed, [None] at
         any other seed, where checks fall back to verdict classes *)
}

(* The benchmark's own generator: every input the library receives is
   drawn here, so a result can be re-checked on a seed nobody tuned
   on.  [salt] keeps the workloads' draws independent. *)
let rng ~seed salt = Random.State.make [| seed; salt |]

let md5 s = Digest.to_hex (Digest.string s)

let run_s o = snd o.span_of_run -. fst o.span_of_run

(* Failure accounting: one [check] per operation attempted. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let check t ok what =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    if t.failed <= 5 then prerr_endline ("perfbench: failed: " ^ what)
  end

(* Times the unit's timed phase under its root span, with the GC
   activity it caused (the speed probes' own left out). *)
let timed name f =
  let mark = Pace.gc_mark () in
  let t0 = Span.now () in
  let v = span name f in
  let t1 = Span.now () in
  let gc = Pace.gc_since mark in
  let finish ~ops ~(tally : tally) ~fingerprint ~counts =
    {
      span_of_run = (t0, t1);
      ops;
      attempted = tally.attempted;
      failed = tally.failed;
      fingerprint;
      counts;
      gc;
    }
  in
  (v, (t0, t1), finish)

(* ---------------------------- golden-sweep ---------------------------- *)

(* The verdict class every scenario keeps at any seed (the same table
   the fault tests check across their seed matrix). *)
let verdict_class =
  [
    ("heartbeat-outage", "contained");
    ("weight-tamper-rollback", "recovered");
    ("core-wedge-rollback", "recovered");
    ("false-alarm-probation", "contained");
    ("nic-flaky-attest", "recovered");
    ("device-stall-shedding", "degraded-gracefully");
    ("irq-storm-contained", "contained");
    ("fault-storm-failover", "failed-over");
    ("toctou-dma-self-patch", "contained");
    ("toctou-shared-window-rewrite", "contained");
    ("toctou-install-race", "contained");
    ("killswitch-exfil-sprint", "contained");
    ("killswitch-replicate", "contained");
    ("killswitch-hostage", "escalation-not-deterred");
  ]

(* Scenario seeds drawn from a range on which every scenario was seen
   to keep its verdict class, so no operation fails by construction of
   the inputs. *)
let scenario_seeds = 16

let golden_sweep ~seed ~pins =
  let st = rng ~seed 1 in
  let scenario_seed = 1 + Random.State.int st scenario_seeds in
  let rig_seed = Random.State.int64 st Int64.max_int in
  (* The sweep builds its rigs inside each scenario.  Set-up prices, on
     its own, the Deployment.create that twelve of the fourteen
     scenarios rebuild. *)
  fun () ->
    ignore
      (span "core.deployment_create" (fun () ->
           Deployment.create ~seed:rig_seed ~net_addr:1000 ()));
    fun () ->
      let results, _, finish =
        timed "golden-sweep" (fun () ->
            List.map
              (fun name ->
                (* Scenarios take about a second each: probe the host's
                   speed between them, long enough to average it. *)
                Pace.tick ~kernels:16 ();
                let t0 = Span.now () in
                let r =
                  match span ("faults." ^ name) (fun () -> Scenarios.run ~seed:scenario_seed name) with
                  | o -> Ok o
                  | exception e -> Error (Printexc.to_string e)
                in
                (name, r, (t0, Span.now ())))
              Scenarios.names)
      in
      let t = tally () in
      let fingerprint =
        List.map
          (fun (name, r, _) ->
            let fp =
              match r with
              | Error e -> "raised " ^ e
              | Ok o ->
                Printf.sprintf "%s|%s|%.6f|%s|%s" o.Scenarios.verdict o.Scenarios.recovery
                  o.Scenarios.sim_horizon
                  (md5 (Scenarios.summary o))
                  (md5 o.Scenarios.trace)
            in
            let ok =
              match (r, pins) with
              | Error _, _ -> false
              | Ok _, Some p -> List.assoc_opt name p = Some fp
              | Ok o, None -> List.assoc_opt name verdict_class = Some o.Scenarios.verdict
            in
            check t ok (Printf.sprintf "scenario %s seed %d: %s" name scenario_seed fp);
            (name, fp))
          results
      in
      finish
        ~ops:(Array.of_list (List.map (fun (_, _, op) -> op) results))
        ~tally:t
        ~fingerprint:(("scenario_seed", string_of_int scenario_seed) :: fingerprint)
        ~counts:[]

(* ----------------------------- serve-soak ----------------------------- *)

(* Cell.run's schedule: the first request is due at 1 sim-s and one
   every 0.25 sim-s after it, with the 2 Hz monitor sampling between;
   the margin lets the last actuations land. *)
let soak_requests = 20_000
let attest_every = 100
let probe_every = 500  (* requests between host-speed probes (Pace) *)
let first_request_at = 1.0
let request_spacing = 0.25
let settle_margin = 24.0
let max_tokens = 12

let serve_soak ~seed ~pins:_ =
  let st = rng ~seed 2 in
  let deployment_seed = Random.State.int64 st Int64.max_int in
  let prompts =
    Array.init soak_requests (fun k ->
        let len = 4 + Random.State.int st 4 in
        List.init len (fun i ->
            if i = len - 1 && (k + 1) mod 3 = 0 then Cell.rogue_trigger
            else Random.State.int st Vocab.harmful_lo))
  in
  (* One hardened request in every ten, at a drawn position. *)
  let hardened_at = Array.init ((soak_requests / 10) + 1) (fun _ -> Random.State.int st 10) in
  let posture k =
    if hardened_at.(k / 10) = k mod 10 then Inference.hardened else Inference.default_posture
  in
  let nonces =
    Array.init (soak_requests / attest_every) (fun _ ->
        Printf.sprintf "%016Lx" (Random.State.bits64 st))
  in
  fun () ->
    let d =
      span "core.deployment_create" (fun () ->
          Deployment.create ~seed:deployment_seed ~name:"soak" ~net_addr:1000 ())
    in
    let model = span "core.load_model" (fun () -> Deployment.load_model d ()) in
    let monitor = span "obs.enable_monitoring" (fun () -> Deployment.enable_monitoring d) in
    (* What the client was provisioned with before it ever talks to the
       platform. *)
    let platform_key = Deployment.platform_key d in
    let expected_root = Deployment.expected_measurement_root d in
    fun () ->
      let t = tally () in
      let outcomes = Array.make soak_requests None in
      let serve_s = Array.make soak_requests (0.0, 0.0) in
      let attested = ref 0 in
      let attest k =
        let nonce = nonces.((k + 1) / attest_every - 1) in
        let verdict =
          match
            span ~req:k "net.attest" (fun () ->
                let quote = span "net.quote" (fun () -> Deployment.attest d ~nonce) in
                span "net.verify_quote" (fun () ->
                    Attest.verify_quote ~platform_key ~expected_root ~nonce quote))
          with
          | v -> v
          | exception e -> Error (Printexc.to_string e)
        in
        if verdict = Ok () then incr attested;
        check t (verdict = Ok ()) (Printf.sprintf "attestation after request %d" k)
      in
      let request k () =
        let req = Inference.request ~posture:(posture k) ~prompt:prompts.(k) ~max_tokens () in
        let t0 = Span.now () in
        (match span ~req:k "hv.serve" (fun () -> Deployment.serve d ~model req) with
        | o ->
          outcomes.(k) <- Some o;
          check t true ""
        | exception e -> check t false (Printf.sprintf "request %d raised %s" k (Printexc.to_string e)));
        serve_s.(k) <- (t0, Span.now ());
        if (k + 1) mod attest_every = 0 then attest k;
        if (k + 1) mod probe_every = 0 then Pace.tick ()
      in
      let (), _, finish =
        timed "serve-soak" (fun () ->
            for k = 0 to soak_requests - 1 do
              ignore
                (Engine.schedule_at (Deployment.engine d)
                   ~at:(first_request_at +. (request_spacing *. float_of_int k))
                   (request k))
            done;
            span "sim.settle" (fun () ->
                Deployment.settle
                  ~horizon:
                    (first_request_at
                    +. (request_spacing *. float_of_int soak_requests)
                    +. settle_margin)
                  d))
      in
      let transcript = Buffer.create (64 * soak_requests) in
      Array.iteri
        (fun k o ->
          match o with
          | None -> Printf.bprintf transcript "%d raised\n" k
          | Some (o : Inference.outcome) ->
            Printf.bprintf transcript "%d [%s] %b %b [%s] %d %d %d %d\n" k
              (String.concat "," (List.map string_of_int prompts.(k)))
              o.Inference.blocked_at_input o.Inference.broken
              (String.concat "," (List.map string_of_int o.Inference.released))
              o.Inference.raw_harmful o.Inference.released_harmful o.Inference.interventions
              o.Inference.steps)
        outcomes;
      let samples =
        Telemetry.get_counter (Telemetry.snapshot (Monitor.telemetry monitor)) "samples.taken"
      in
      let cores = Array.to_list (Machine.model_cores (Deployment.machine d)) in
      let sum f = List.fold_left (fun acc c -> acc + f c) 0 cores in
      finish ~ops:serve_s ~tally:t
        ~fingerprint:
          [
            ("requests", string_of_int soak_requests);
            ("attested", string_of_int !attested);
            ("transcript", md5 (Buffer.contents transcript));
            ("monitor_samples", string_of_int samples);
            ("sim_horizon", Printf.sprintf "%.6f" (Engine.now (Deployment.engine d)));
            ("instructions_retired", string_of_int (sum Core.instructions_retired));
            ("core_cycles", string_of_int (sum Core.cycles));
            ("trace", md5 (Deployment.export_trace d));
          ]
        ~counts:[ ("obs.samples_taken", float_of_int samples) ]

(* ----------------------------- guest-exec ----------------------------- *)

let compute_iterations = 100_000
let compute_rounds = 32
let patch_iterations = 64
let patch_rounds = 128
let probe_bits = 512

(* sum of i*i for i < n: what compute_loop stores at result_base *)
let sum_of_squares n = Int64.of_int ((n - 1) * n * ((2 * n) - 1) / 6)

let guest_exec ~seed ~pins:_ =
  let st = rng ~seed 3 in
  let secret = List.init probe_bits (fun _ -> Random.State.bool st) in
  let compute = Asm.assemble_exn (Guest.compute_loop ~iterations:compute_iterations) in
  let patched = Asm.assemble_exn (Guest.compute_loop ~iterations:patch_iterations) in
  (* The patch loop of bench/perf.ml: the host rewrites the hot mul
     word between runs, alternating two encodings, so every round
     invalidates the translated block. *)
  let mul_a = Encoding.encode (Isa.Mul (6, 1, 1)) in
  let mul_b = Encoding.encode (Isa.Mul (6, 5, 5)) (* r5 = 1, so the loop sums ones *) in
  let mul_addr =
    let rec find i =
      if i >= Array.length patched.Asm.words then invalid_arg "guest-exec: mul word not found"
      else if patched.Asm.words.(i) = mul_a then patched.Asm.origin + i
      else find (i + 1)
    in
    find 0
  in
  let install hv label program =
    span "vet.install" (fun () ->
        Hypervisor.install_program hv ~vet_policy:Hypervisor.default_vet_policy ~label ~core:0
          ~code_pages:4 ~data_pages:4 program)
  in
  fun () ->
    let m = span "machine.create" (fun () -> Machine.create ()) in
    let hv = span "hv.create" (fun () -> Hypervisor.create ~machine:m ()) in
    let shared =
      span "memory.hierarchy_create" (fun () ->
          Hierarchy.create ~dram:(Dram.create ~size:(64 * 1024)) ())
    in
    fun () ->
      let t = tally () in
      let core = Machine.model_core m 0 in
      let result () = Dram.read (Machine.model_dram m) Guest.result_base in
      let ops = Array.make compute_rounds (0.0, 0.0) in
      let compute_instr = ref 0 and patch_instr = ref 0 and installed_words = ref 0 in
      let retired f =
        let before = Core.instructions_retired core in
        f ();
        Core.instructions_retired core - before
      in
      let (reports, coadmits, patch_results, probe), _, finish =
        timed "guest-exec" (fun () ->
            let reports =
              List.map
                (fun (e : Vet_corpus.entry) -> (e, span "vet.corpus" (fun () -> Vet_corpus.vet e)))
                Vet_corpus.all
            in
            let coadmits =
              List.map
                (fun (r : Vet_corpus.roster) -> (r, span "vet.coadmit" (fun () -> Vet_corpus.coadmit r)))
                Vet_corpus.coadmit_rosters
            in
            for round = 0 to compute_rounds - 1 do
              if round mod 8 = 0 then Pace.tick ();
              let t0 = Span.now () in
              let admitted = Result.is_ok (install hv "compute" compute) in
              installed_words := !installed_words + Array.length compute.Asm.words;
              compute_instr :=
                !compute_instr
                + retired (fun () ->
                      span "microarch.compute" (fun () ->
                          while Machine.run_cores m ~cycles:4096 > 0 do () done));
              ops.(round) <- (t0, Span.now ());
              check t
                (admitted && result () = sum_of_squares compute_iterations)
                (Printf.sprintf "compute round %d" round)
            done;
            check t (Result.is_ok (install hv "patch-loop" patched)) "patch-loop install";
            installed_words := !installed_words + Array.length patched.Asm.words;
            let run_patched () =
              patch_instr :=
                !patch_instr
                + retired (fun () ->
                      span "microarch.patch" (fun () -> ignore (Core.run core ~fuel:max_int)))
            in
            run_patched ();
            let patch_results =
              List.init patch_rounds (fun round ->
                  let word = if round mod 2 = 0 then mul_b else mul_a in
                  span "machine.inspect_write" (fun () -> Machine.inspect_write m mul_addr word);
                  Core.set_pc core patched.Asm.origin;
                  Core.resume core;
                  run_patched ();
                  let got = result () in
                  let want =
                    if word = mul_b then Int64.of_int patch_iterations else sum_of_squares patch_iterations
                  in
                  check t (got = want) (Printf.sprintf "patch round %d" round);
                  got)
            in
            let probe =
              span "memory.prime_probe" (fun () ->
                  Covert.prime_probe ~sender:shared ~receiver:shared secret)
            in
            (reports, coadmits, patch_results, probe))
      in
      List.iter
        (fun ((e : Vet_corpus.entry), (r : Vet.report)) ->
          check t (r.Vet.verdict = e.Vet_corpus.expected) ("corpus verdict " ^ e.Vet_corpus.name))
        reports;
      List.iter
        (fun ((r : Vet_corpus.roster), (rep : Interfere.report)) ->
          check t (rep.Interfere.verdict = r.Vet_corpus.expect) ("roster verdict " ^ r.Vet_corpus.roster_name))
        coadmits;
      check t (probe.Covert.recovered = secret) "prime+probe decode";
      let js = Core.jit_stats core in
      finish ~ops ~tally:t
        ~fingerprint:
          [
            ("vet_reports", md5 (String.concat "\n" (List.map (fun (_, r) -> Vet.to_json r) reports)));
            ( "coadmit_reports",
              md5 (String.concat "\n" (List.map (fun (_, r) -> Interfere.to_json r) coadmits)) );
            ("compute_instructions", string_of_int !compute_instr);
            ("patch_instructions", string_of_int !patch_instr);
            ("patch_results", md5 (String.concat "," (List.map Int64.to_string patch_results)));
            ("instructions_retired", string_of_int (Core.instructions_retired core));
            ("core_cycles", string_of_int (Core.cycles core));
            ("jit_translations", string_of_int js.Jit.translations);
            ("jit_invalidations", string_of_int js.Jit.invalidations);
            ("prime_probe_cycles", string_of_int probe.Covert.cycles);
            ("prime_probe_accuracy", Printf.sprintf "%.6f" probe.Covert.accuracy);
          ]
        ~counts:
          [
            ("microarch.compute_instr", float_of_int !compute_instr);
            ("microarch.patch_instr", float_of_int !patch_instr);
            ("microarch.jit_invalidations", float_of_int js.Jit.invalidations);
            ("vet.installed_words", float_of_int !installed_words);
            ("memory.prime_probe_cycles", float_of_int probe.Covert.cycles);
          ]

(* ------------------------------- fleet -------------------------------- *)

(* The fleet layer is measured in traced runs only: a 2-domain pass on
   the shared 2-core host varies too much from run to run to be an
   end-to-end workload.  Streams are longer than the fleet's default 4
   requests per user, so serving stays a visible share of a pass once
   set-up gets cheap. *)
let fleet_requests_per_user = 64
let fleet_seeds = 16
let rogue_cell = 1

let fleet ~seed ~domains =
  let st = rng ~seed 4 in
  let fleet_seed = 1 + Random.State.int st fleet_seeds in
  Fleet.create ~cells:4 ~domains ~rogue:rogue_cell ~seed:fleet_seed
    ~requests_per_user:fleet_requests_per_user ()

let view_fingerprint (v : Fleet.view) =
  [
    ("fleet_seed", string_of_int v.Fleet.v_seed);
    ("digest", v.Fleet.v_digest);
    ("requests", string_of_int v.Fleet.v_requests);
    ("blocked", string_of_int v.Fleet.v_blocked);
    ("released", string_of_int v.Fleet.v_released);
    ("harmful_released", string_of_int v.Fleet.v_harmful_released);
    ("interventions", string_of_int v.Fleet.v_interventions);
    ("alerts", string_of_int (List.length v.Fleet.v_alerts));
    ( "incident_cell",
      match v.Fleet.v_incident_cell with Some c -> string_of_int c | None -> "none" );
  ]

(* The same fleet on two domains, then on one: both views must name the
   rogue cell, release nothing harmful, and agree byte for byte.
   Returns the 2-domain fingerprint and the tally. *)
let fleet_passes ~seed =
  Span.track := "fleet";
  let two = span "fleet.pass" (fun () -> Fleet.run (fleet ~seed ~domains:2)) in
  let one = span "fleet.pass_1dom" (fun () -> Fleet.run (fleet ~seed ~domains:1)) in
  let t = tally () in
  let ok (v : Fleet.view) =
    v.Fleet.v_incident_cell = Some rogue_cell && v.Fleet.v_harmful_released = 0
  in
  check t (ok two) ("2-domain fleet view:\n" ^ Fleet.view_summary two);
  check t (ok one) ("1-domain fleet view:\n" ^ Fleet.view_summary one);
  check t (view_fingerprint two = view_fingerprint one) "1-domain and 2-domain fleet views differ";
  (view_fingerprint two, t)

(* ------------------------------- crypto ------------------------------- *)

(* The crypto rungs Deployment.create hides: the benchmark generates
   the keys it would, at the heights it uses (two h8, one h6, seven
   h5), and digests 32-byte messages. *)
let sha256_messages = 20_000

let crypto_probes ~seed =
  Span.track := "ladder";
  let st = rng ~seed 5 in
  List.iter
    (fun (height, keys) ->
      for _ = 1 to keys do
        let prng = Guillotine_util.Prng.create (Random.State.int64 st Int64.max_int) in
        ignore
          (span (Printf.sprintf "crypto.keygen_h%d" height) (fun () ->
               Signature.generate ~height prng))
      done)
    [ (8, 2); (6, 1); (5, 7) ];
  let messages =
    Array.init sha256_messages (fun _ -> String.init 32 (fun _ -> Char.chr (Random.State.int st 256)))
  in
  span "crypto.sha256_32B" (fun () ->
      Array.iter (fun m -> ignore (Sha256.digest m)) messages)

let all =
  [
    { name = "golden-sweep"; unit_s = 11.5; prepare = golden_sweep };
    { name = "serve-soak"; unit_s = 3.6; prepare = serve_soak };
    { name = "guest-exec"; unit_s = 0.23; prepare = guest_exec };
  ]
