//! Figure 1 as a runnable demo: one groupware application per quadrant
//! of the time–space matrix, all served by the same environment and the
//! same simulated network, with the time-transparency bridge connecting
//! the same-time and different-time quadrants.
//!
//! Run with: `cargo run --example time_space_matrix`

use open_cscw::directory::Dn;
use open_cscw::groupware::{
    descriptor_for, mapping_for, BbsClient, BbsServer, ConferenceClient, ConferenceServer,
    MeetingRoom, Participant, Procedure, ProcedureStep, APP_POPULATION,
};
use open_cscw::kernel::Timestamp;
use open_cscw::messaging::{MtaNode, OrAddress};
use open_cscw::mocca::org::{Person, RelationKind, Role};
use open_cscw::mocca::CscwEnvironment;
use open_cscw::simnet::{LinkSpec, Sim, TopologyBuilder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tom: Dn = "cn=Tom".parse()?;
    let wolfgang: Dn = "cn=Wolfgang".parse()?;

    // One environment covering every quadrant (the paper's openness
    // requirement: remote/local × synchronous/asynchronous co-exist).
    let mut env = CscwEnvironment::new();
    for app in APP_POPULATION {
        env.register_app(descriptor_for(app)?, mapping_for(app)?);
    }
    println!(
        "environment covers {} of 4 quadrants with {} applications\n",
        env.apps().covered_quadrants().len(),
        env.apps().apps().len()
    );

    // One simulated network for everything distributed.
    let mut b = TopologyBuilder::new();
    let conf_server = b.add_node("conference-server");
    let bbs_server = b.add_node("bbs-server");
    let mta = b.add_node("mta");
    let tom_ws = b.add_node("tom-ws");
    let wolfgang_ws = b.add_node("wolfgang-ws");
    b.full_mesh(LinkSpec::wan());
    let mut sim = Sim::new(b.build(), 7);

    let bbs_addr: OrAddress = "C=UK;O=Lancaster;PN=COM Server".parse()?;
    let mut mta_node = MtaNode::new("mta");
    mta_node.register_mailbox(bbs_addr.clone());
    sim.register(mta, mta_node);
    sim.register(conf_server, ConferenceServer::new());
    sim.register(bbs_server, BbsServer::new(bbs_addr, mta));
    sim.register(tom_ws, ConferenceClient::new());
    sim.register(wolfgang_ws, ConferenceClient::new());

    // -- same time / different places: desktop conference ------------------
    let p_tom = Participant {
        who: tom.clone(),
        node: tom_ws,
        server: conf_server,
    };
    let p_wolfgang = Participant {
        who: wolfgang.clone(),
        node: wolfgang_ws,
        server: conf_server,
    };
    p_tom.join(&mut sim);
    p_wolfgang.join(&mut sim);
    p_tom.request_floor(&mut sim);
    let before = sim.now();
    p_tom.draw(&mut sim, "architecture diagram");
    let sync_latency = sim.now() - before;
    println!("[same time / different places]  Shared-X-style conference");
    println!(
        "    draw relayed to all in {sync_latency} µs, WYSIWIS = {}",
        p_wolfgang.window_matches_server(&sim)
    );

    // -- same time / same place: meeting room -------------------------------
    let mut meeting = MeetingRoom::convene("kick-off", tom.clone(), vec![wolfgang.clone()]);
    let item = meeting.propose(&tom, "adopt the open environment")?;
    meeting.propose(&wolfgang, "stay closed")?;
    meeting.start_voting(&tom)?;
    meeting.vote(&tom, item)?;
    meeting.vote(&wolfgang, item)?;
    let outcome = meeting.close(&tom)?;
    println!("[same time / same place]        COLAB-style meeting room");
    println!(
        "    winning item: {:?} with {} votes",
        outcome[0].text, outcome[0].votes
    );

    // -- different times / different places: computer conferencing ----------
    let bbs_tom = BbsClient {
        who: tom.clone(),
        node: tom_ws,
        server: bbs_server,
    };
    let bbs_wolfgang = BbsClient {
        who: wolfgang.clone(),
        node: wolfgang_ws,
        server: bbs_server,
    };
    bbs_tom.create_conference(&mut sim, "odp-discussion");
    bbs_tom.post(
        &mut sim,
        "odp-discussion",
        "Will ODP help?",
        "Our answer is yes.",
        None,
    );
    // Wolfgang reads a simulated day later.
    sim.run_until(sim.now() + 86_400_000_000);
    let entries = bbs_wolfgang.read(&sim, "odp-discussion")?;
    let async_latency = sim.now() - entries[0].at;
    println!("[diff times / diff places]      COM-style conferencing");
    println!(
        "    entry read {async_latency} µs after posting ({} entr(y/ies))",
        entries.len()
    );

    // -- different times / same place: procedure on the shared workstation --
    let mut org = open_cscw::mocca::org::OrganisationalModel::new();
    org.add_person(Person::new(tom.clone(), "Tom"));
    org.add_person(Person::new(wolfgang.clone(), "Wolfgang"));
    org.add_role(Role::new("cn=author-role".parse()?, "author"));
    org.add_role(Role::new("cn=reviewer-role".parse()?, "reviewer"));
    org.relate(&tom, RelationKind::Occupies, &"cn=author-role".parse()?)?;
    org.relate(
        &wolfgang,
        RelationKind::Occupies,
        &"cn=reviewer-role".parse()?,
    )?;
    let mut procedure = Procedure::new(
        "camera-ready",
        vec![
            ProcedureStep {
                name: "draft".into(),
                required_role: "cn=author-role".parse()?,
            },
            ProcedureStep {
                name: "review".into(),
                required_role: "cn=reviewer-role".parse()?,
            },
            ProcedureStep {
                name: "submit".into(),
                required_role: "cn=author-role".parse()?,
            },
        ],
    );
    procedure.perform(&org, 0, &tom, Timestamp::from_secs(0))?;
    procedure.perform(&org, 1, &wolfgang, Timestamp::from_secs(86_400))?;
    procedure.perform(&org, 2, &tom, Timestamp::from_secs(172_800))?;
    println!("[diff times / same place]       DOMINO-style procedure");
    println!(
        "    {} steps completed across 2 simulated days, complete = {}",
        procedure.outcomes().len(),
        procedure.is_complete()
    );

    println!(
        "\nshape check: synchronous latency ({sync_latency}) ≪ asynchronous ({async_latency})"
    );
    assert!(sync_latency < async_latency);
    Ok(())
}
