module Crypto = Guillotine_crypto
module Prng = Guillotine_util.Prng

type endpoint = {
  cert : Cert.t;
  signer : Crypto.Signature.signer;
  ca_public_key : Crypto.Signature.public_key;
}

let make_endpoint ~prng ~ca ~ca_name ~ca_public_key ~name
    ?(guillotine_hypervisor = false) () =
  let signer, public_key = Crypto.Signature.generate ~height:6 prng in
  let cert =
    Cert.issue ~ca ~ca_name ~subject:name ~public_key ~guillotine_hypervisor ()
  in
  { cert; signer; ca_public_key }

type client_hello = {
  c_nonce : string;
  c_cert : Cert.t;
  c_sig : string; (* signature over nonce || cert fingerprint *)
}

type server_hello = {
  s_nonce : string;
  s_cert : Cert.t;
  s_sig : string; (* signature over the full transcript *)
}

type error =
  | Bad_certificate of string
  | Refused_guillotine_peer
  | Bad_transcript_signature
  | Protocol_error of string

let pp_error ppf = function
  | Bad_certificate m -> Format.fprintf ppf "bad certificate: %s" m
  | Refused_guillotine_peer ->
    Format.fprintf ppf "refused: peer is also a Guillotine hypervisor"
  | Bad_transcript_signature -> Format.fprintf ppf "bad transcript signature"
  | Protocol_error m -> Format.fprintf ppf "protocol error: %s" m

type session = {
  peer : Cert.t;
  send_key : string;
  recv_key : string;
  mutable send_ctr : int;
  mutable recv_ctr : int;
}

let nonce_of prng = String.init 32 (fun _ -> Char.chr (Prng.int prng 256))

let hello_bytes ch = ch.c_nonce ^ Cert.fingerprint ch.c_cert

let transcript_bytes ch (s_nonce, s_cert) =
  hello_bytes ch ^ s_nonce ^ Cert.fingerprint s_cert

let master_key ch sh =
  Crypto.Sha256.digest_concat
    [ "master"; ch.c_nonce; sh.s_nonce;
      Cert.fingerprint ch.c_cert; Cert.fingerprint sh.s_cert ]

let directional master label = Crypto.Sha256.digest_concat [ label; master ]

(* Policy gate shared by both roles: CA validity + ring refusal. *)
let check_peer self (peer_cert : Cert.t) =
  if not (Cert.verify ~ca_public_key:self.ca_public_key peer_cert) then
    Error (Bad_certificate "issuer signature does not verify against trusted CA")
  else if self.cert.Cert.guillotine_hypervisor && peer_cert.Cert.guillotine_hypervisor
  then Error Refused_guillotine_peer
  else Ok ()

let client_hello ep ~prng =
  let c_nonce = nonce_of prng in
  let unsigned = { c_nonce; c_cert = ep.cert; c_sig = "" } in
  let sg = Crypto.Signature.sign ep.signer (hello_bytes unsigned) in
  { unsigned with c_sig = Crypto.Signature.encode sg }

let server_respond ep ~prng ch =
  match check_peer ep ch.c_cert with
  | Error _ as e -> e
  | Ok () -> (
    match Crypto.Signature.decode ch.c_sig with
    | None -> Error (Protocol_error "malformed client signature")
    | Some sg ->
      if
        not
          (Crypto.Signature.verify ch.c_cert.Cert.public_key ~msg:(hello_bytes ch) sg)
      then Error Bad_transcript_signature
      else begin
        let s_nonce = nonce_of prng in
        let transcript = transcript_bytes ch (s_nonce, ep.cert) in
        let s_sig = Crypto.Signature.encode (Crypto.Signature.sign ep.signer transcript) in
        let sh = { s_nonce; s_cert = ep.cert; s_sig } in
        let master = master_key ch sh in
        let session =
          {
            peer = ch.c_cert;
            send_key = directional master "s2c";
            recv_key = directional master "c2s";
            send_ctr = 0;
            recv_ctr = 0;
          }
        in
        Ok (sh, session)
      end)

let client_finish ep ch sh =
  match check_peer ep sh.s_cert with
  | Error _ as e -> e
  | Ok () -> (
    match Crypto.Signature.decode sh.s_sig with
    | None -> Error (Protocol_error "malformed server signature")
    | Some sg ->
      let transcript = transcript_bytes ch (sh.s_nonce, sh.s_cert) in
      if not (Crypto.Signature.verify sh.s_cert.Cert.public_key ~msg:transcript sg)
      then Error Bad_transcript_signature
      else begin
        let master = master_key ch sh in
        Ok
          {
            peer = sh.s_cert;
            send_key = directional master "c2s";
            recv_key = directional master "s2c";
            send_ctr = 0;
            recv_ctr = 0;
          }
      end)

let peer_name s = s.peer.Cert.subject
let peer_is_guillotine s = s.peer.Cert.guillotine_hypervisor

(* SHA-256-CTR keystream XOR. *)
let keystream key ~ctr ~len =
  let buf = Buffer.create len in
  let block = ref 0 in
  while Buffer.length buf < len do
    Buffer.add_string buf
      (Crypto.Sha256.digest_concat [ key; Printf.sprintf "%d:%d" ctr !block ]);
    incr block
  done;
  Buffer.sub buf 0 len

let xor_with ks s = String.init (String.length s) (fun i -> Char.chr (Char.code s.[i] lxor Char.code ks.[i]))

let seal s plaintext =
  let ctr = s.send_ctr in
  s.send_ctr <- ctr + 1;
  let ks = keystream s.send_key ~ctr ~len:(String.length plaintext) in
  let ct = xor_with ks plaintext in
  let tag = Crypto.Hmac.mac ~key:s.send_key (Printf.sprintf "%d:" ctr ^ ct) in
  ct ^ tag

let open_ s sealed =
  if String.length sealed < 32 then None
  else begin
    let ct = String.sub sealed 0 (String.length sealed - 32) in
    let tag = String.sub sealed (String.length sealed - 32) 32 in
    let ctr = s.recv_ctr in
    if not (Crypto.Hmac.verify ~key:s.recv_key ~msg:(Printf.sprintf "%d:" ctr ^ ct) ~tag)
    then None
    else begin
      s.recv_ctr <- ctr + 1;
      let ks = keystream s.recv_key ~ctr ~len:(String.length ct) in
      Some (xor_with ks ct)
    end
  end
