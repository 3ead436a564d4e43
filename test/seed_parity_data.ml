(* GENERATED by `SF_PARITY_RECORD=1 dune exec test/main.exe -- test sim_parity`.
   Signatures of the SEED engine on the scenarios in Test_sim_parity.cases;
   the optimized engine must reproduce them bit-for-bit. Do not edit. *)

let expected : (string * string) list =
  [
    ("laplace2d", "cycles=86 pred=84 read=256 written=256 net=0 stalls=[lap:1] hw=[a->lap:1/4,lap->mem:1/12] out=5423d697ee0e6357 trace=0/cbf29ce484222325");
    ("laplace2d-w4", "cycles=87 pred=85 read=1024 written=1024 net=0 stalls=[lap:1] hw=[a->lap:1/4,lap->mem:1/12] out=d816efe47543e8fe trace=0/cbf29ce484222325");
    ("diamond", "cycles=145 pred=141 read=512 written=512 net=0 stalls=[a:1,b:3,c:15] hw=[a->b:1/4,a->c:13/15,b->c:1/4,x->a:1/4,c->mem:1/12] out=a2234731a7b5c458 trace=0/cbf29ce484222325");
    ("chain3-w2", "cycles=99 pred=95 read=256 written=256 net=0 stalls=[f1:1,f2:23,f3:45] hw=[f1->f2:1/4,f2->f3:1/4,f0->f1:1/4,f3->mem:1/12] out=e470c710f2deae7a trace=0/cbf29ce484222325");
    ("kitchen-sink", "cycles=210 pred=206 read=1564 written=672 net=0 stalls=[lap:1,flux:8,out:13] hw=[lap->flux:1/4,flux->out:1/4,u->lap:1/4,u->out:14/15,v->lap:3/6,out->mem:1/12] out=a558f390c6e92d8c trace=0/cbf29ce484222325");
    ("kitchen-sink-w2", "cycles=66 pred=62 read=788 written=336 net=0 stalls=[lap:1,flux:8,out:13] hw=[lap->flux:1/4,flux->out:1/4,u->lap:1/4,u->out:14/15,v->lap:3/6,out->mem:1/12] out=c7151134c869d367 trace=0/cbf29ce484222325");
    ("fork", "cycles=85 pred=82 read=256 written=512 net=0 stalls=[left:1,right:1,join:19] hw=[left->join:17/20,right->join:1/4,a->left:1/4,a->right:1/4,left->mem:1/12,join->mem:1/12] out=4a3b305477b5d86e trace=0/cbf29ce484222325");
    ("smoothing3d", "cycles=2077 pred=2074 read=32900 written=32768 net=0 stalls=[lap:1,smooth:23] hw=[lap->smooth:1/4,u->lap:1/4,u->smooth:23/25,smooth->mem:1/12] out=e2b22ee9d8ed4ef3 trace=0/cbf29ce484222325");
    ("diamond-json", "cycles=2071 pred=2067 read=8192 written=8192 net=0 stalls=[a:1,b:3,c:21] hw=[a->b:1/4,a->c:19/21,b->c:1/4,x->a:1/4,c->mem:1/12] out=1f5d31541969a95c trace=0/cbf29ce484222325");
    ("deadlock-diamond", "deadlock@263 blocked=[a:output a->c full,b:waiting on empty input a,c:waiting on empty input b,read.x@0:consumer channel full,write.c@0:waiting on empty input stream] wait=[a->c->b->a]");
    ("multi-device-chain", "cycles=177 pred=156 read=240 written=240 net=240 stalls=[f1:1,f2:26,f3:67,f4:92] hw=[f1->f2:1/4,f2->f3.tx:1/4,f2->f3.rx:1/4,f3->f4:1/4,f0->f1:1/4,f4->mem:1/12] out=4d63a108276329a3 trace=0/cbf29ce484222325");
    ("net-capped-chain", "cycles=494 pred=296 read=768 written=768 net=768 stalls=[f1:184,f2:249] hw=[f1->f2.tx:4/4,f1->f2.rx:1/4,f0->f1:4/4,f2->mem:1/12] out=82bfac333af71ae9 trace=0/cbf29ce484222325");
    ("mem-capped-laplace", "cycles=512 pred=324 read=1024 written=1024 net=0 stalls=[lap:63] hw=[a->lap:1/4,lap->mem:1/12] out=d816efe47543e8fe trace=0/cbf29ce484222325");
    ("traced-diamond", "cycles=143 pred=139 read=512 written=512 net=0 stalls=[a:1,b:3,c:13] hw=[a->b:1/4,a->c:11/13,b->c:1/4,x->a:1/4,c->mem:1/12] out=a48750972ac72e33 trace=18/4c000073876bf725");
    ("max-cycles-timeout", "deadlock@40 blocked=[f1:pipeline in flight,f2:pipeline in flight,f3:waiting on empty input f2,read.f0@0:waiting for memory bandwidth,write.f3@0:waiting on empty input stream] wait=[]");
    ("long-rows-chain8", "cycles=3191 pred=3182 read=3000 written=3000 net=0 stalls=[f1:1,f2:306,f3:611,f4:916,f5:1221,f6:1526,f7:1831,f8:2136] hw=[f1->f2:1/4,f2->f3:1/4,f3->f4:1/4,f4->f5:1/4,f5->f6:1/4,f6->f7:1/4,f7->f8:1/4,f0->f1:1/4,f8->mem:1/12] out=61c29c54534e1188 trace=0/cbf29ce484222325");
    ("chain4-w4-ragged", "cycles=685 pred=680 read=2112 written=2112 net=0 stalls=[f1:1,f2:139,f3:277,f4:415] hw=[f1->f2:1/4,f2->f3:1/4,f3->f4:1/4,f0->f1:1/4,f4->mem:1/12] out=2fce6f568deef74a trace=0/cbf29ce484222325");
    ("random-00", "cycles=30 pred=27 read=48 written=120 net=0 stalls=[s0:1,s1:1,s2:1,s3:3] hw=[s0->s3:1/4,in0->s0:1/4,in0->s1:1/4,in0->s2:1/4,s1->mem:1/12,s2->mem:1/12,s3->mem:1/12] out=194256c338cbc6d7 trace=0/cbf29ce484222325");
    ("random-01", "cycles=104 pred=101 read=292 written=576 net=0 stalls=[s0:1,s1:1,s2:4,s4:4,s3:4] hw=[s0->s2:1/4,s1->s3:1/4,s0->s4:1/4,in0->s0:1/4,in0->s1:1/4,in0->s4:41/43,s2->mem:1/12,s3->mem:1/12,s4->mem:1/12] out=afbab1a25d801c93 trace=0/cbf29ce484222325");
    ("random-02", "cycles=79 pred=75 read=136 written=128 net=0 stalls=[s0:1,s1:29,s2:29,s3:46] hw=[s0->s1:1/4,s0->s2:1/4,s2->s3:1/4,in0->s0:1/4,in0->s1:16/31,in0->s3:16/60,s1->mem:1/12,s3->mem:1/12] out=1f98cd6a806dd3ca trace=0/cbf29ce484222325");
    ("random-03", "cycles=18 pred=16 read=96 written=48 net=0 stalls=[s0:1] hw=[in0->s0:1/4,in1->s0:2/5,s0->mem:1/12] out=af6b75ad239994ba trace=0/cbf29ce484222325");
    ("random-04", "cycles=25 pred=22 read=100 written=96 net=0 stalls=[s0:0,s1:5,s2:9] hw=[s0->s1:1/4,s0->s2:5/7,s1->s2:1/4,in1->s1:5/8,in1->s2:9/11,s2->mem:1/12] out=113076233f16cd0d trace=0/cbf29ce484222325");
    ("random-05", "cycles=48 pred=46 read=192 written=240 net=0 stalls=[s0:1,s1:1] hw=[in0->s0:1/4,in0->s1:1/4,s0->mem:1/12,s1->mem:1/12] out=4a680201690f916b trace=0/cbf29ce484222325");
    ("random-06", "cycles=129 pred=126 read=256 written=16 net=0 stalls=[s0:1,s1:11] hw=[s0->s1:1/4,in0->s0:1/4,in0->s1:11/13,s1->mem:1/12] out=47433a9a648540bb trace=0/cbf29ce484222325");
    ("random-07", "cycles=77 pred=74 read=128 written=128 net=0 stalls=[s0:1,s1:6] hw=[s0->s1:1/4,in1->s0:1/4,s1->mem:1/12] out=146fae4773e9b375 trace=0/cbf29ce484222325");
    ("random-08", "cycles=22 pred=20 read=56 written=112 net=0 stalls=[s0:1,s1:1] hw=[in0->s0:1/4,in0->s1:1/4,s0->mem:1/12,s1->mem:1/12] out=404f765a59898190 trace=0/cbf29ce484222325");
    ("random-09", "cycles=22 pred=20 read=196 written=192 net=0 stalls=[s0:1,s1:0] hw=[in0->s0:1/4,in1->s0:4/7,s0->mem:1/12,s1->mem:1/12] out=4247533f95bb012e trace=0/cbf29ce484222325");
    ("random-10", "cycles=45 pred=40 read=164 written=320 net=0 stalls=[s0:1,s1:2,s2:12,s3:15,s4:15] hw=[s0->s1:1/4,s1->s2:1/4,s2->s3:1/4,s2->s4:1/4,s0->s4:14/15,in0->s0:1/4,in0->s1:2/4,in0->s2:12/13,s3->mem:1/12,s4->mem:1/12] out=c39564dd80b256c1 trace=0/cbf29ce484222325");
    ("random-11", "cycles=19 pred=16 read=96 written=48 net=0 stalls=[s0:1,s1:5] hw=[s0->s1:1/4,in0->s0:1/4,in0->s1:3/7,in1->s0:1/4,s1->mem:1/12] out=b8e5ea5ade5b2877 trace=0/cbf29ce484222325");
    ("random-12", "cycles=17 pred=14 read=80 written=40 net=0 stalls=[s0:1,s1:7] hw=[s0->s1:1/4,in0->s0:1/4,in0->s1:5/10,in1->s1:5/10,s1->mem:1/12] out=88bde1dc8ec3b1cb trace=0/cbf29ce484222325");
    ("random-13", "cycles=28 pred=26 read=256 written=128 net=0 stalls=[s0:1] hw=[in0->s0:8/11,in1->s0:1/4,s0->mem:1/12] out=9e52ae56cf8a83e trace=0/cbf29ce484222325");
  ]
