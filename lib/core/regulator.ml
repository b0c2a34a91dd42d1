module Attest = Guillotine_net.Attest
module Risk = Guillotine_policy.Risk
module Regulation = Guillotine_policy.Regulation
module Audit = Guillotine_hv.Audit
module Hypervisor = Guillotine_hv.Hypervisor
module Machine = Guillotine_machine.Machine
module Prng = Guillotine_util.Prng
module Crypto = Guillotine_crypto

type t = {
  ca_signer : Crypto.Signature.signer;
  ca_public_key : Crypto.Signature.public_key;
  prng : Prng.t;
  certified_roots : (string, unit) Hashtbl.t;
}

(* The CA name every certificate the regulator issues carries. *)
let name = "ai-regulator-ca"

let create ?(seed = 0x5E6A1L) () =
  let prng = Prng.create seed in
  let ca_signer, ca_public_key = Crypto.Signature.generate ~height:8 prng in
  { ca_signer; ca_public_key; prng; certified_roots = Hashtbl.create 4 }

let ca t = (t.ca_signer, name, t.ca_public_key)

let certify_platform t ~root = Hashtbl.replace t.certified_roots root ()
let certified t ~root = Hashtbl.mem t.certified_roots root

let challenge t deployment =
  let nonce = String.init 16 (fun _ -> Char.chr (Prng.int t.prng 256)) in
  let quote = Deployment.attest deployment ~nonce in
  let result =
    if not (certified t ~root:quote.Attest.root) then
      Error "platform measurement not on the certified list"
    else
      Attest.verify_quote
        ~platform_key:(Deployment.platform_key deployment)
        ~expected_root:quote.Attest.root ~nonce quote
  in
  let hv = Deployment.hv deployment in
  let detail = match result with Ok () -> "certified platform" | Error e -> e in
  ignore
    (Audit.append (Hypervisor.audit hv)
       ~tick:(Machine.now (Deployment.machine deployment))
       (Audit.Attestation { ok = Result.is_ok result; detail }));
  result

let regulator_addr = 1

let remote_challenge t deployment =
  let fabric = Deployment.fabric deployment in
  let engine = Deployment.engine deployment in
  let nonce = String.init 16 (fun _ -> Char.chr (Prng.int t.prng 256)) in
  let reply = ref None in
  Guillotine_net.Fabric.attach fabric ~addr:regulator_addr (fun ~src:_ ~payload ->
      let p = "QUOTE:" in
      let plen = String.length p in
      if String.length payload > plen && String.sub payload 0 plen = p then
        reply := Attest.decode_quote (String.sub payload plen (String.length payload - plen)));
  Guillotine_net.Fabric.send fabric ~src:regulator_addr
    ~dest:(Deployment.net_addr deployment)
    ~payload:("ATTEST:" ^ nonce);
  (* Let the round-trip (or its absence) play out. *)
  Guillotine_sim.Engine.run engine
    ~until:(Guillotine_sim.Engine.now engine +. 1.0)
    ~max_events:100_000;
  Guillotine_net.Fabric.detach fabric ~addr:regulator_addr;
  let result =
    match !reply with
    | None -> Error "no response (deployment unreachable)"
    | Some quote ->
      if not (certified t ~root:quote.Attest.root) then
        Error "platform measurement not on the certified list"
      else
        Attest.verify_quote
          ~platform_key:(Deployment.platform_key deployment)
          ~expected_root:quote.Attest.root ~nonce quote
  in
  let hv = Deployment.hv deployment in
  let detail =
    match result with
    | Ok () -> "remote attestation: certified platform"
    | Error e -> "remote attestation: " ^ e
  in
  ignore
    (Audit.append (Hypervisor.audit hv)
       ~tick:(Machine.now (Deployment.machine deployment))
       (Audit.Attestation { ok = Result.is_ok result; detail }));
  result

let inspect _t ~now deployment = Regulation.check ~now deployment
